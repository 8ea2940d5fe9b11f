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

:func:`rollup` is the one place spans are totalled per ``(kind,
name)``: EXPLAIN ANALYZE (:mod:`repro.obs.explain`), trace diffs
(:mod:`repro.obs.diff`) and the ASCII summary table
(:func:`~repro.obs.sinks.summary_table`) all read its
:class:`SpanTotals`.  A profile keeps the per-call timings instead,
which the Section 4.3 numbers and the speed-up curves need.
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

__all__ = ["ElementTiming", "QueryProfile", "SpanTotals",
           "profile_spans", "rollup"]


@dataclass
class SpanTotals:
    """The spans of one ``(kind, name)`` in a trace, totalled."""

    kind: str
    name: str
    calls: int = 0
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    rows: int = 0
    #: ``bytes`` attributes summed over each span's subtree (plus, for
    #: an element, the transfers into the nodes it ran on)
    bytes: int = 0
    #: cluster nodes an element ran on (empty for serial runs)
    nodes: set[int] = field(default_factory=set)
    #: query-cache outcomes (zero when the run was uncached)
    cache_hits: int = 0
    cache_misses: int = 0
    #: runs added by misses that extended a cached source entry
    extended_runs: int = 0

    def annotation(self) -> str:
        """The EXPLAIN ANALYZE annotation of a plan node."""
        parts = [f"calls={self.calls}",
                 f"wall={self.wall_seconds * 1e3:.3f}ms",
                 f"cpu={self.cpu_seconds * 1e3:.3f}ms",
                 f"rows={self.rows}"]
        if self.bytes:
            parts.append(f"bytes={self.bytes}")
        if self.nodes:
            parts.append("node=" + ",".join(
                str(n) for n in sorted(self.nodes)))
        if self.cache_hits or self.cache_misses:
            if self.cache_misses == 0:
                parts.append("cache=HIT")
            elif self.cache_hits == 0:
                parts.append("cache=MISS")
            else:
                parts.append(f"cache={self.cache_hits}xHIT/"
                             f"{self.cache_misses}xMISS")
        if self.extended_runs:
            parts.append(f"extended_runs={self.extended_runs}")
        return "(" + " ".join(parts) + ")"


def rollup(spans: Iterable["Span"]
           ) -> dict[tuple[str, str], SpanTotals]:
    """Total ``spans`` per ``(kind, name)``.

    Calls, wall and CPU time, rows, cache outcomes and extended runs
    sum over the group's spans; bytes sum each span's subtree.  An element is also
    credited with the ``node`` spans the parallel executor wrapped
    around its executions (attribute ``element``): their node number
    joins :attr:`SpanTotals.nodes`, and the bytes of their ``transfer``
    children (the vectors shipped to that node) join its bytes.
    """
    from .spans import ELEMENT_KINDS
    spans = list(spans)
    children: dict[int, list["Span"]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)

    def subtree_bytes(span: "Span") -> int:
        # a trace file may link parents in a cycle: visit each span once
        total, seen, stack = 0, set(), [span]
        while stack:
            s = stack.pop()
            if id(s) not in seen:
                seen.add(id(s))
                total += s.bytes
                stack.extend(children.get(s.span_id, ()))
        return total

    totals: dict[tuple[str, str], SpanTotals] = {}
    elements: dict[str, SpanTotals] = {}
    for span in spans:
        key = (span.kind, span.name)
        st = totals.get(key)
        if st is None:
            st = totals[key] = SpanTotals(span.kind, span.name)
            if span.kind in ELEMENT_KINDS:
                elements.setdefault(span.name, st)
        st.calls += 1
        st.wall_seconds += span.wall_seconds
        st.cpu_seconds += span.cpu_seconds
        st.rows += span.rows
        st.bytes += subtree_bytes(span)
        cache = span.attributes.get("cache")
        if cache == "hit":
            st.cache_hits += 1
        elif cache == "miss":
            st.cache_misses += 1
            st.extended_runs += int(span.attributes.get("extended_runs", 0))
    for span in spans:
        if span.kind != "node":
            continue
        st = elements.get(str(span.attributes.get("element", "")))
        if st is None:
            continue
        if span.name.startswith("node"):
            try:
                st.nodes.add(int(span.name[4:]))
            except ValueError:
                pass
        st.bytes += sum(c.bytes for c in children.get(span.span_id, ())
                        if c.kind == "transfer")
    return totals


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
