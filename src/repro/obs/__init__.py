"""Structured tracing and metrics (the observability subsystem).

The paper's parallel-query design (Section 4.3) was justified by
profiling the real query command; this package makes that kind of
measurement a first-class, always-available facility:

* :class:`Tracer` produces nested :class:`Span` records — per query
  element, per DB statement, per imported file, per inter-node vector
  transfer — with wall/CPU clocks and row/byte counters.
* :data:`REGISTRY` is the one process-level :class:`Metrics` registry
  of thread-safe counters and gauges, fed by the instrumented layers
  through :func:`count` and :func:`gauge_add` whether or not a tracer
  is active; a :class:`MetricsView` (``tracer.metrics``) reports what
  it recorded while the view was open.
* Sinks take finished spans wherever needed: in memory for tests and
  benchmarks (:class:`InMemorySink`), to a JSON-lines file for later
  analysis (:class:`JsonLinesSink` / :func:`read_trace`), or as an
  ASCII summary table (:func:`summary_table`).
* :func:`rollup` totals spans per ``(kind, name)``; EXPLAIN ANALYZE,
  :func:`diff_traces` and :func:`summary_table` all read it.
* :func:`compare_metric` is the one regression rule: ``trace-diff``
  applies it to one sample per side, the sentinel to many.
* :class:`QueryProfile` — the Section 4.3 per-element profile — is a
  thin view over the element spans of a trace
  (:meth:`QueryProfile.from_spans`); ``profile=True`` query runs
  collect theirs with :func:`profile_spans`.

Tracing is off unless a tracer is activated::

    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        query.execute(experiment)
    print(tracer.spans)          # element + db spans, nested

With no active tracer the instrumented layers only pay one
context-variable read per span site, plus the counters :func:`count`
always adds to the process registry.
"""

from .diff import (MetricComparison, RegressionReason, RegressionRecord,
                   SpanSetDelta, TraceDiff, compare_metric, diff_traces)
from .explain import explain
from .metrics import (REGISTRY, Counter, Gauge, Metrics, MetricsView,
                      count, gauge_add)
from .profile import (ElementTiming, QueryProfile, SpanTotals,
                      profile_spans, rollup)
from .render import timeline
from .sinks import (AsciiSummarySink, InMemorySink, JsonLinesSink,
                    Sink, TraceData, metrics_table, read_trace,
                    summary_table)
from .spans import ELEMENT_KINDS, Span
from .tracer import (Tracer, current_span, current_tracer, maybe_span,
                     use_tracer)

__all__ = [
    "MetricComparison", "RegressionReason", "RegressionRecord",
    "SpanSetDelta", "TraceDiff", "compare_metric", "diff_traces",
    "explain",
    "REGISTRY", "Counter", "Gauge", "Metrics", "MetricsView", "count",
    "gauge_add",
    "ElementTiming", "QueryProfile", "SpanTotals", "profile_spans",
    "rollup",
    "timeline",
    "AsciiSummarySink", "InMemorySink", "JsonLinesSink", "Sink",
    "TraceData", "metrics_table", "read_trace", "summary_table",
    "ELEMENT_KINDS", "Span",
    "Tracer", "current_span", "current_tracer", "maybe_span",
    "use_tracer",
]
