"""The context-local tracer: produces nested spans.

Design constraints (mirroring how the paper's Section 4.3 numbers were
obtained — by profiling the real query command, not a model):

* **Zero overhead when disabled.**  Instrumented code calls
  :func:`current_tracer` — a single ``ContextVar`` read — and skips all
  span work when it returns ``None``.  No tracer object exists unless
  one was explicitly activated.
* **Context-local.**  Activation via :func:`use_tracer` binds the
  tracer to the current :mod:`contextvars` context, so two interleaved
  query runs (e.g. in tests) never see each other's spans.
* **Thread-aware.**  ``ThreadPoolExecutor`` workers start in a fresh
  context, so the parallel executor re-activates the tracer inside each
  worker with :func:`use_tracer`, passing the parent span explicitly;
  span ids are allocated from one atomic counter so ids stay unique
  across threads.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Iterator

from .metrics import MetricsView
from .sinks import InMemorySink, Sink
from .spans import Span

__all__ = ["Tracer", "current_tracer", "use_tracer", "maybe_span"]

_ACTIVE: contextvars.ContextVar["Tracer | None"] = \
    contextvars.ContextVar("perfbase_tracer", default=None)
_CURRENT_SPAN: contextvars.ContextVar[Span | None] = \
    contextvars.ContextVar("perfbase_current_span", default=None)


def current_tracer() -> "Tracer | None":
    """The tracer active in this context (``None`` = tracing disabled).

    This is the hot-path check: instrumented layers call it once per
    operation and do nothing further when it returns ``None``.
    """
    return _ACTIVE.get()


def current_span() -> Span | None:
    """The innermost open span of this context, if any."""
    return _CURRENT_SPAN.get()


@contextmanager
def use_tracer(tracer: "Tracer | None",
               parent: Span | None = None) -> Iterator["Tracer | None"]:
    """Activate ``tracer`` for the dynamic extent of the ``with`` block.

    ``parent`` seeds the current-span context — the parallel executor
    passes its run-root span here so element spans created in worker
    threads nest below it.  ``use_tracer(None)`` explicitly disables
    tracing inside the block (useful for differential tests).
    """
    token = _ACTIVE.set(tracer)
    span_token = (_CURRENT_SPAN.set(parent) if parent is not None
                  else None)
    try:
        yield tracer
    finally:
        if span_token is not None:
            _CURRENT_SPAN.reset(span_token)
        _ACTIVE.reset(token)


def maybe_span(name: str, kind: str = "span", **attributes: Any):
    """Span context manager when tracing is active, no-op otherwise.

    Convenience for warm paths (per-file imports, whole-query roots);
    truly hot paths (per-statement DB calls) branch on
    :func:`current_tracer` themselves to skip even the null context.
    """
    tracer = current_tracer()
    if tracer is None:
        return nullcontext(None)
    return tracer.span(name, kind=kind, **attributes)


class Tracer:
    """Produces spans and forwards finished ones to sinks.

    ``sinks`` are the destinations for finished spans.  Defaults to one
    :class:`~repro.obs.sinks.InMemorySink` so ``tracer.spans`` works
    out of the box.

    :attr:`metrics` is a :class:`~repro.obs.metrics.MetricsView`: what
    the process registry recorded from the tracer's creation to its
    :meth:`close` — work of other threads and tracers in that window
    included.
    """

    def __init__(self, *sinks: Sink):
        self.sinks: list[Sink] = list(sinks) if sinks \
            else [InMemorySink()]
        self.metrics = MetricsView()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._open = 0

    # -- span production -------------------------------------------------

    @contextmanager
    def span(self, name: str, kind: str = "span",
             parent: Span | None = None,
             **attributes: Any) -> Iterator[Span]:
        """Open a span for the extent of the ``with`` block.

        The parent defaults to the context's innermost open span; pass
        ``parent=`` explicitly when crossing threads.  The yielded span
        is live — set counters on ``span.attributes`` as information
        becomes available; on exit it is finished and emitted to every
        sink.
        """
        if parent is None:
            parent = _CURRENT_SPAN.get()
        span = Span(span_id=next(self._ids),
                    parent_id=parent.span_id if parent else None,
                    name=name, kind=kind,
                    attributes=dict(attributes))
        token = _CURRENT_SPAN.set(span)
        with self._lock:
            self._open += 1
        span.cpu_start = time.process_time()
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            span.cpu_end = time.process_time()
            _CURRENT_SPAN.reset(token)
            with self._lock:
                self._open -= 1
            for sink in self.sinks:
                sink.emit(span)

    @contextmanager
    def collecting(self) -> Iterator[InMemorySink]:
        """Attach a private in-memory sink for the ``with`` block.

        The sink list is swapped, never mutated, so a span finishing
        concurrently on another thread emits to one complete list.
        """
        sink = InMemorySink()
        with self._lock:
            self.sinks = [*self.sinks, sink]
        try:
            yield sink
        finally:
            with self._lock:
                self.sinks = [s for s in self.sinks if s is not sink]

    @property
    def open_spans(self) -> int:
        """Number of spans currently open (across all threads)."""
        return self._open

    # -- access to collected data ----------------------------------------

    @property
    def memory(self) -> InMemorySink | None:
        """The first in-memory sink, if one is attached."""
        for sink in self.sinks:
            if isinstance(sink, InMemorySink):
                return sink
        return None

    @property
    def spans(self) -> list[Span]:
        """Finished spans collected in memory (emission order)."""
        memory = self.memory
        return memory.spans if memory is not None else []

    def element_spans(self) -> list[Span]:
        """Spans produced by query elements (the logical query record)."""
        from .spans import ELEMENT_KINDS
        return [s for s in self.spans if s.kind in ELEMENT_KINDS]

    def close(self) -> None:
        """Freeze :attr:`metrics`, then flush and close every sink
        (metrics snapshots included)."""
        metrics = self.metrics.close()
        for sink in self.sinks:
            sink.close(metrics)
