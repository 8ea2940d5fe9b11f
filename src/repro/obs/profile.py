"""Per-element query profiles — a view over the trace.

Section 4.3: "we profiled the perfbase query command and could see that
in fact, the fraction of time spent within the source elements is
typically only about 10%.  This fraction decreases with increasing
complexity of the query."

:class:`QueryProfile` aggregates per-element timings into exactly that
metric (:meth:`QueryProfile.source_fraction`).  The tracing subsystem
records every element execution — cache hits included — as a span, and
that span is the only record of it: a profile is a *view* over the
element spans of a trace (:meth:`QueryProfile.from_spans`).  A
``profile=True`` query run collects its spans with
:func:`profile_spans`, so its timings include the span overhead, like
every profile taken from a trace.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, TYPE_CHECKING

from .sinks import InMemorySink
from .tracer import Tracer, current_tracer, use_tracer

if TYPE_CHECKING:  # pragma: no cover
    from .spans import Span

__all__ = ["ElementTiming", "QueryProfile", "profile_spans"]


@contextmanager
def profile_spans(enabled: bool) -> Iterator[InMemorySink | None]:
    """Collect the spans finished inside the ``with`` block.

    Under an active tracer a private sink is attached for the block
    (whatever sinks the tracer has); with tracing off a private
    :class:`~repro.obs.tracer.Tracer` is activated instead.  Yields
    ``None`` when not ``enabled``.
    """
    if not enabled:
        yield None
        return
    tracer = current_tracer()
    if tracer is None:
        tracer = Tracer()
        with use_tracer(tracer):
            yield tracer.memory
    else:
        with tracer.collecting() as sink:
            yield sink


@dataclass(frozen=True)
class ElementTiming:
    """Timing record of one element execution."""

    name: str
    kind: str
    seconds: float
    rows: int
    #: columns of the output vector (0 for output elements)
    cols: int = 0
    #: whether this execution was served from the query cache
    cached: bool = False


@dataclass
class QueryProfile:
    """Element timings of one query run (thread-safe to extend)."""

    query_name: str = "query"
    timings: list[ElementTiming] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    @classmethod
    def from_spans(cls, spans: Iterable["Span"],
                   query_name: str = "query", *,
                   query: "str | int | None" = None) -> "QueryProfile":
        """Build a profile from the element spans of a trace.

        Non-element spans (DB statements, transfers, roots) are
        ignored, so a full execution trace can be passed unfiltered —
        this is how the Section 4.3 benchmark derives the paper's
        source-fraction number from a recorded trace alone.

        A trace may hold several query runs (two queries traced back to
        back, or concurrently on different threads).  ``query`` then
        selects one: a string matches the *name* of the enclosing
        query-root span (kind ``query``/``parallel``), an integer its
        ``span_id`` — so two runs of the same query stay separable.
        Element spans reached through no query root (e.g. a bare
        ``element.execute`` under a tracer) only count when no
        ``query`` filter is given.
        """
        from .spans import ELEMENT_KINDS, Span
        spans = list(spans)
        profile = cls(query_name=(query if isinstance(query, str)
                                  else query_name))
        by_id: dict[int, "Span"] = {s.span_id: s for s in spans}

        def root_of(span: "Span") -> "Span | None":
            """Nearest enclosing query/parallel root, if any."""
            seen: set[int] = set()
            current = span
            while current.parent_id is not None \
                    and current.parent_id in by_id \
                    and current.parent_id not in seen:
                seen.add(current.parent_id)
                current = by_id[current.parent_id]
                if current.kind in ("query", "parallel"):
                    return current
            return None

        for span in spans:
            if span.kind not in ELEMENT_KINDS:
                continue
            if query is not None:
                root = root_of(span)
                if root is None:
                    continue
                wanted = (root.span_id == query if isinstance(query, int)
                          else root.name == query)
                if not wanted:
                    continue
            profile.record(span.name, span.kind,
                           span.wall_seconds, span.rows,
                           int(span.attributes.get("cols", 0) or 0),
                           cached=(span.attributes.get("cache")
                                   == "hit"))
        return profile

    def record(self, name: str, kind: str, seconds: float,
               rows: int, cols: int = 0, *,
               cached: bool = False) -> None:
        with self._lock:
            self.timings.append(
                ElementTiming(name, kind, seconds, rows, cols, cached))

    def cached_fraction(self) -> float:
        """Fraction of element executions served from the query cache."""
        if not self.timings:
            return 0.0
        return (sum(1 for t in self.timings if t.cached)
                / len(self.timings))

    def timing_of(self, name: str) -> ElementTiming:
        for t in self.timings:
            if t.name == name:
                return t
        raise KeyError(name)

    # -- aggregation -----------------------------------------------------

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.timings)

    def seconds_by_kind(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for t in self.timings:
            out[t.kind] = out.get(t.kind, 0.0) + t.seconds
        return out

    def source_fraction(self) -> float:
        """Fraction of total element time spent in source elements —
        the paper's ~10% number."""
        total = self.total_seconds
        if total == 0.0:
            return 0.0
        return self.seconds_by_kind().get("source", 0.0) / total

    def report(self) -> str:
        """Human-readable profile table."""
        lines = [f"query profile: {self.query_name}",
                 f"{'element':<24} {'kind':<10} {'rows':>8} "
                 f"{'seconds':>10} {'share':>7}"]
        total = self.total_seconds or 1.0
        for t in sorted(self.timings, key=lambda t: -t.seconds):
            lines.append(
                f"{t.name:<24} {t.kind:<10} {t.rows:>8} "
                f"{t.seconds:>10.6f} {100 * t.seconds / total:>6.1f}%")
        lines.append(
            f"total {self.total_seconds:.6f}s, source fraction "
            f"{100 * self.source_fraction():.1f}%")
        return "\n".join(lines)
