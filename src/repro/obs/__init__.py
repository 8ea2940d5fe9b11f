"""Structured tracing and metrics (the observability subsystem).

The paper's parallel-query design (Section 4.3) was justified by
profiling the real query command; this package makes that kind of
measurement a first-class, always-available facility:

* :class:`Tracer` produces nested :class:`Span` records — per query
  element, per DB statement, per imported file, per inter-node vector
  transfer — with wall/CPU clocks and row/byte counters.
* :class:`Metrics` is a registry of thread-safe counters, gauges and
  histograms fed by the same instrumented layers.
* Sinks take finished spans wherever needed: in memory for tests and
  benchmarks (:class:`InMemorySink`), to a JSON-lines file for later
  analysis (:class:`JsonLinesSink` / :func:`read_trace`), or as an
  ASCII summary table (:func:`summary_table`).
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
context-variable read per operation; :func:`count` is the one-line
"increment if tracing" call they use for counters.
"""

from .diff import (RegressionReason, RegressionRecord, SpanSetDelta,
                   TraceDiff, diff_traces)
from .explain import ElementStats, collect_element_stats, explain
from .metrics import Counter, Gauge, Histogram, Metrics
from .profile import ElementTiming, QueryProfile, profile_spans
from .render import timeline
from .sinks import (AsciiSummarySink, InMemorySink, JsonLinesSink,
                    Sink, TraceData, metrics_table, read_trace,
                    summary_table)
from .spans import ELEMENT_KINDS, Span
from .tracer import (Tracer, count, current_span, current_tracer,
                     maybe_span, use_tracer)

__all__ = [
    "RegressionReason", "RegressionRecord", "SpanSetDelta",
    "TraceDiff", "diff_traces",
    "ElementStats", "collect_element_stats", "explain",
    "Counter", "Gauge", "Histogram", "Metrics",
    "ElementTiming", "QueryProfile", "profile_spans",
    "timeline",
    "AsciiSummarySink", "InMemorySink", "JsonLinesSink", "Sink",
    "TraceData", "metrics_table", "read_trace", "summary_table",
    "ELEMENT_KINDS", "Span",
    "Tracer", "count", "current_span", "current_tracer", "maybe_span",
    "use_tracer",
]
