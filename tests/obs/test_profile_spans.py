"""QueryProfile.from_spans with multi-query traces and the ``query``
filter (name or root span id)."""

import pytest

from repro.obs import QueryProfile, Span

pytestmark = pytest.mark.obs


def query_run(base_id, name, t0, src_seconds=0.1, op_seconds=0.3):
    """Spans of one query run: root + one source + one operator."""
    return [
        Span(base_id, None, name, kind="query", start=t0,
             end=t0 + src_seconds + op_seconds),
        Span(base_id + 1, base_id, "src", kind="source", start=t0,
             end=t0 + src_seconds, attributes={"rows": 10}),
        Span(base_id + 2, base_id, "agg", kind="operator",
             start=t0 + src_seconds,
             end=t0 + src_seconds + op_seconds),
    ]


class TestMultiQueryTraces:
    def test_unfiltered_sums_all_runs(self):
        spans = query_run(1, "qa", 0.0) + query_run(10, "qb", 1.0)
        profile = QueryProfile.from_spans(spans)
        assert len(profile.timings) == 4
        assert profile.total_seconds == pytest.approx(0.8)

    def test_filter_by_query_name(self):
        spans = query_run(1, "qa", 0.0, src_seconds=0.1) \
            + query_run(10, "qb", 1.0, src_seconds=0.4)
        profile = QueryProfile.from_spans(spans, query="qb")
        assert profile.query_name == "qb"
        assert len(profile.timings) == 2
        assert profile.timing_of("src").seconds == pytest.approx(0.4)

    def test_filter_by_root_span_id(self):
        # two runs of the SAME query name: span id keeps them apart
        spans = query_run(1, "q", 0.0, src_seconds=0.1) \
            + query_run(10, "q", 1.0, src_seconds=0.2)
        first = QueryProfile.from_spans(spans, query=1)
        second = QueryProfile.from_spans(spans, query=10)
        assert first.timing_of("src").seconds == pytest.approx(0.1)
        assert second.timing_of("src").seconds == pytest.approx(0.2)
        name_filtered = QueryProfile.from_spans(spans, query="q")
        assert len(name_filtered.timings) == 4

    def test_interleaved_concurrent_runs(self):
        """Two queries traced concurrently: spans interleave in
        emission order but parent links keep them separable."""
        a = query_run(1, "qa", 0.0)
        b = query_run(10, "qb", 0.05)
        interleaved = [a[0], b[0], a[1], b[1], b[2], a[2]]
        pa = QueryProfile.from_spans(interleaved, query="qa")
        pb = QueryProfile.from_spans(interleaved, query="qb")
        assert {t.name for t in pa.timings} == {"src", "agg"}
        assert {t.name for t in pb.timings} == {"src", "agg"}
        assert pa.total_seconds == pytest.approx(0.4)

    def test_rootless_elements_only_without_filter(self):
        bare = [Span(1, None, "src", kind="source", start=0.0,
                     end=0.5)]
        assert len(QueryProfile.from_spans(bare).timings) == 1
        assert QueryProfile.from_spans(bare, query="q").timings == []

    def test_parallel_root_matches_too(self):
        spans = [
            Span(1, None, "q", kind="parallel", start=0.0, end=1.0),
            Span(2, 1, "node0", kind="node", start=0.0, end=0.9),
            Span(3, 2, "src", kind="source", start=0.0, end=0.4),
        ]
        profile = QueryProfile.from_spans(spans, query="q")
        assert profile.timing_of("src").seconds == pytest.approx(0.4)


class TestEmptyTraces:
    def test_empty_spans(self):
        profile = QueryProfile.from_spans([])
        assert profile.timings == []
        assert profile.total_seconds == 0.0
        assert profile.source_fraction() == 0.0
        assert "source fraction 0.0%" in profile.report()

    def test_no_element_spans(self):
        spans = [Span(1, None, "stmt", kind="db", start=0.0, end=1.0)]
        profile = QueryProfile.from_spans(spans)
        assert profile.timings == []
        assert profile.source_fraction() == 0.0


def small_query(name="profiled"):
    from repro.query import Operator, Output, ParameterSpec, Query, Source
    return Query([
        Source("s", parameters=[ParameterSpec("S_chunk"),
                                ParameterSpec("access")],
               results=["bw"]),
        Operator("m", "avg", ["s"]),
        Output("table", ["m"], format="ascii"),
    ], name=name)


class TestProfileFromRunSpans:
    """``profile=True`` builds ``QueryResult.profile`` from the run's
    own element spans, whatever tracer is (or is not) active."""

    def test_tracer_with_only_a_json_sink(self, filled_experiment):
        import io

        from repro.obs import JsonLinesSink, Tracer, use_tracer
        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        tracer = Tracer(sink)
        with use_tracer(tracer):
            result = small_query().execute(filled_experiment,
                                           profile=True)
        assert [t.name for t in result.profile.timings] == \
            ["s", "m", "table"]
        assert tracer.sinks == [sink]  # the private sink is detached
        tracer.close()
        assert stream.getvalue().count('"kind": "source"') == 1

    def test_runs_on_a_shared_tracer_stay_apart(self, filled_experiment):
        from repro.obs import Tracer, use_tracer
        tracer = Tracer()
        with use_tracer(tracer):
            first = small_query().execute(filled_experiment,
                                          profile=True)
            second = small_query().execute(filled_experiment,
                                           profile=True)
        assert len(tracer.element_spans()) == 6
        roots = sorted(s.span_id for s in tracer.spans
                       if s.kind == "query")
        for result, root in zip((first, second), roots):
            assert result.profile.timings == QueryProfile.from_spans(
                tracer.spans, query=root).timings
            assert len(result.profile.timings) == 3


def test_collecting_sink_swap_never_skips_a_sink():
    """A collector detached while a span is being emitted (as another
    thread's run ends) must not make the emission skip the sinks after
    it."""
    from repro.obs import InMemorySink, Tracer
    base = InMemorySink()
    tracer = Tracer(base)
    early = tracer.collecting()
    early_sink = early.__enter__()
    emit = early_sink.emit

    def emit_then_detach(span):
        emit(span)
        early.__exit__(None, None, None)

    early_sink.emit = emit_then_detach
    with tracer.collecting() as late:
        with tracer.span("x", kind="op"):
            pass
    assert len(base) == len(early_sink) == len(late) == 1
    assert tracer.sinks == [base]
