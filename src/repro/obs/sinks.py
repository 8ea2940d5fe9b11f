"""Pluggable span sinks plus trace persistence and rendering.

Three sinks ship:

* :class:`InMemorySink` — collects spans in a list; what tests and the
  benchmarks use.
* :class:`JsonLinesSink` — appends each finished span as one JSON
  object per line; :func:`read_trace` loads such a file back.  This is
  the durable form: a benchmark can re-derive the paper's Section 4.3
  source-fraction number from the file alone.
* :class:`AsciiSummarySink` — aggregates spans and renders an ASCII
  summary table through the existing
  :class:`~repro.output.ascii_table.AsciiTableFormat`, so trace
  summaries look exactly like query output tables.

The summary and metrics tables render through
:func:`repro.obs.render.table`, which imports the database and output
layers lazily: the DB layer itself is instrumented and imports this
package, so module level here must stay dependency-free.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import IO, Iterable

from .metrics import Metrics
from .render import table
from .spans import ELEMENT_KINDS, Span

__all__ = ["Sink", "InMemorySink", "JsonLinesSink", "AsciiSummarySink",
           "TraceData", "read_trace", "summary_table", "metrics_table"]


class Sink:
    """Destination for finished spans.  Subclasses override both hooks."""

    def emit(self, span: Span) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self, metrics: Metrics | None = None) -> None:
        """Flush buffered state; ``metrics`` is what the tracer's
        metrics view recorded."""


class InMemorySink(Sink):
    """Collects finished spans in a thread-safe list."""

    def __init__(self):
        self._spans: list[Span] = []
        self._lock = threading.Lock()

    def emit(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class JsonLinesSink(Sink):
    """Writes spans as JSON lines; the metrics snapshot goes last.

    Accepts a path (``str`` or :class:`os.PathLike`, opened and owned
    by the sink, truncating an existing file) or an open text stream
    (flushed but not closed).  Lines are self-describing:
    ``{"type": "span", ...}`` and ``{"type": "metrics", ...}``.

    The sink is also a context manager: ``with JsonLinesSink(p) as s``
    guarantees the file is flushed and closed even when the traced
    operation raises (``close`` is idempotent, so a tracer closing the
    sink again afterwards is harmless).
    """

    def __init__(self, target: str | os.PathLike | IO[str]):
        if isinstance(target, (str, os.PathLike)):
            self._fh: IO[str] = open(os.fspath(target), "w",
                                     encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self._lock = threading.Lock()
        self._closed = False

    def emit(self, span: Span) -> None:
        line = json.dumps({"type": "span", **span.to_dict()},
                          default=str)
        with self._lock:
            if not self._closed:
                self._fh.write(line + "\n")

    def close(self, metrics: Metrics | None = None) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if metrics is not None:
                self._fh.write(json.dumps(
                    {"type": "metrics",
                     "metrics": metrics.snapshot()}) + "\n")
            self._fh.flush()
            if self._owns:
                self._fh.close()

    def __enter__(self) -> "JsonLinesSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class TraceData:
    """A loaded trace: spans in emission order plus the final metrics.

    ``errors`` records malformed lines that were skipped during loading
    (only populated when :func:`read_trace` runs with
    ``on_error="skip"``), as ``"line N: reason"`` strings.
    """

    spans: list[Span] = field(default_factory=list)
    metrics: Metrics = field(default_factory=Metrics)
    errors: list[str] = field(default_factory=list)

    def element_spans(self) -> list[Span]:
        return [s for s in self.spans if s.kind in ELEMENT_KINDS]

    def by_kind(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.kind, []).append(span)
        return out

    def roots(self) -> list[Span]:
        """Spans whose parent is missing from the trace (tree roots)."""
        ids = {s.span_id for s in self.spans}
        return [s for s in self.spans
                if s.parent_id is None or s.parent_id not in ids]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]


def read_trace(path: str | os.PathLike, *,
               on_error: str = "raise") -> TraceData:
    """Load a JSON-lines trace written by :class:`JsonLinesSink`.

    A truncated or otherwise malformed line (the typical artefact of a
    crashed or killed traced process) raises a
    :class:`~repro.core.errors.TraceFormatError` naming file and line —
    or, with ``on_error="skip"``, is recorded in ``TraceData.errors``
    and skipped so the intact rest of the trace stays usable.
    """
    from ..core.errors import TraceFormatError
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', "
                         f"got {on_error!r}")
    trace = TraceData()
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise TraceFormatError(
                        f"expected a JSON object, got "
                        f"{type(record).__name__}",
                        path=path, line=lineno)
                if record.get("type") == "span":
                    trace.spans.append(Span.from_dict(record))
                elif record.get("type") == "metrics":
                    trace.metrics = Metrics.from_snapshot(
                        record.get("metrics", {}))
            except TraceFormatError as exc:
                if on_error == "raise":
                    raise
                trace.errors.append(f"line {lineno}: {exc}")
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValueError) as exc:
                if on_error == "raise":
                    raise TraceFormatError(
                        f"malformed trace line: {exc}",
                        path=path, line=lineno) from exc
                trace.errors.append(f"line {lineno}: {exc}")
    return trace


# -- ASCII rendering ---------------------------------------------------------


def summary_table(spans: Iterable[Span],
                  title: str = "trace summary") -> str:
    """Render the :func:`~repro.obs.profile.rollup` of ``spans`` as an
    ASCII table."""
    from .profile import rollup  # profile imports this module
    rows = [[st.kind, st.name, st.calls, st.wall_seconds,
             st.cpu_seconds, st.rows]
            for _, st in sorted(rollup(spans).items())]
    return table(
        rows,
        [("kind", "string"), ("name", "string"),
         ("count", "integer"), ("wall_s", "float"),
         ("cpu_s", "float"), ("rows", "integer")],
        title)


def metrics_table(metrics: Metrics,
                  title: str = "metrics") -> str:
    """Render a metrics registry as an ASCII table."""
    rows = [[name, snap["type"], float(snap["value"])]
            for name, snap in sorted(metrics.snapshot().items())]
    return table(
        rows,
        [("metric", "string"), ("type", "string"), ("value", "float")],
        title)


class AsciiSummarySink(Sink):
    """Buffers spans; writes summary (and metrics) tables on close."""

    def __init__(self, stream: IO[str], *,
                 title: str = "trace summary"):
        self._stream = stream
        self._title = title
        self._buffer = InMemorySink()

    def emit(self, span: Span) -> None:
        self._buffer.emit(span)

    def close(self, metrics: Metrics | None = None) -> None:
        self._stream.write(summary_table(self._buffer.spans,
                                         self._title))
        if metrics is not None and metrics.names():
            self._stream.write("\n")
            self._stream.write(metrics_table(metrics))
