"""EXPLAIN / EXPLAIN ANALYZE rendering of query plans."""

import os

import pytest

from repro.obs import (ELEMENT_KINDS, InMemorySink, QueryProfile, Span,
                       Tracer, explain, rollup, use_tracer)
from repro.parallel import ParallelQueryExecutor, SimulatedCluster
from repro.workloads.beffio_assets import fig8_query_xml
from repro.xmlio import parse_query_xml

pytestmark = [pytest.mark.obs, pytest.mark.obs_analytics]

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "explain_fig8.golden")


@pytest.fixture
def fig8_query():
    return parse_query_xml(fig8_query_xml())


def traced_spans(query, experiment, nodes=0):
    tracer = Tracer(InMemorySink())
    with use_tracer(tracer):
        if nodes:
            cluster = SimulatedCluster(nodes)
            ParallelQueryExecutor(cluster).execute(query, experiment)
            cluster.shutdown()
        else:
            query.execute(experiment)
    tracer.close()
    return tracer.spans


class TestPlainExplain:
    def test_matches_golden_file(self, fig8_query):
        with open(GOLDEN, encoding="utf-8") as fh:
            assert explain(fig8_query) == fh.read()

    def test_deterministic(self, fig8_query):
        assert explain(fig8_query) == explain(fig8_query)
        # a freshly parsed query renders identically
        again = parse_query_xml(fig8_query_xml())
        assert explain(again) == explain(fig8_query)

    def test_structure(self, fig8_query):
        text = explain(fig8_query)
        assert text.startswith(
            "QUERY PLAN: fig8_listless_vs_listbased\n")
        assert ("elements: 8 (2 source, 3 operator, 0 combiner, "
                "3 output); levels: 4; width: 3") in text
        # one tree root per output element
        for output in ("chart", "table", "bars"):
            assert f"\n{output} [output " in "\n" + text
        # shared subtrees render once, then reference the first render
        assert text.count("(shown above)") == 2
        assert text.count("src_new [source") == 1


class TestExplainAnalyze:
    def test_annotations_agree_with_spans(self, beffio_experiment,
                                          fig8_query):
        spans = traced_spans(fig8_query, beffio_experiment)
        text = explain(fig8_query, spans)
        stats = {name: st for (kind, name), st in rollup(spans).items()
                 if kind in ELEMENT_KINDS}
        assert set(stats) == set(fig8_query.elements)
        for name, st in stats.items():
            assert st.calls == 1
            assert f"wall={st.wall_seconds * 1e3:.3f}ms" in text
        profile = QueryProfile.from_spans(spans)
        assert (f"source fraction "
                f"{100 * profile.source_fraction():.1f}%") in text
        assert (f"element time "
                f"{profile.total_seconds * 1e3:.3f}ms") in text
        assert "(not executed)" not in text

    def test_trace_data_object_accepted(self, beffio_experiment,
                                        fig8_query):
        class Boxed:
            def __init__(self, spans):
                self.spans = spans
        spans = traced_spans(fig8_query, beffio_experiment)
        assert explain(fig8_query, Boxed(spans)) == \
            explain(fig8_query, spans)

    def test_parallel_trace_has_node_placement(self, beffio_experiment,
                                               fig8_query):
        spans = traced_spans(fig8_query, beffio_experiment, nodes=2)
        text = explain(fig8_query, spans)
        assert "node=" in text
        nodes = set()
        for st in rollup(spans).values():
            nodes |= st.nodes
        assert nodes == {0, 1}

    def test_unexecuted_and_unknown_elements(self, fig8_query):
        spans = [
            Span(1, None, "q", kind="query", start=0.0, end=1.0),
            Span(2, 1, "src_new", kind="source", start=0.0, end=0.5,
                 attributes={"rows": 4}),
            Span(3, 1, "mystery", kind="operator", start=0.5, end=0.6),
        ]
        text = explain(fig8_query, spans)
        assert "(not executed)" in text          # e.g. src_old
        assert "not in plan: mystery [operator]" in text


class TestCollectElementStats:
    def test_aggregates_multiple_calls(self):
        spans = [
            Span(1, None, "s", kind="source", start=0.0, end=0.5,
                 cpu_start=0.0, cpu_end=0.4, attributes={"rows": 3}),
            Span(2, None, "s", kind="source", start=1.0, end=1.25,
                 cpu_start=1.0, cpu_end=1.2, attributes={"rows": 2}),
        ]
        st = rollup(spans)[("source", "s")]
        assert st.calls == 2
        assert st.wall_seconds == pytest.approx(0.75)
        assert st.cpu_seconds == pytest.approx(0.6)
        assert st.rows == 5
        assert st.nodes == set()

    def test_node_spans_contribute_placement_and_bytes(self):
        spans = [
            Span(1, None, "node1", kind="node", start=0.0, end=1.0,
                 attributes={"element": "op"}),
            Span(2, 1, "in", kind="transfer", start=0.0, end=0.1,
                 attributes={"bytes": 128}),
            Span(3, 1, "op", kind="operator", start=0.1, end=0.9,
                 attributes={"rows": 7}),
        ]
        st = rollup(spans)[("operator", "op")]
        assert st.nodes == {1}
        assert st.bytes == 128
        assert st.calls == 1 and st.rows == 7
        assert "node=1" in st.annotation()
        assert "bytes=128" in st.annotation()


class TestExplainCacheAnnotations:
    """EXPLAIN ANALYZE with the incremental engine's cache outcomes."""

    CACHE_GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                                "explain_fig8_cache.golden")

    @staticmethod
    def cache_spans():
        """A deterministic warm-ish trace: both sources re-executed
        after an import, max_new hit through the result chain."""
        def el(span_id, name, kind, start, end, rows, cache):
            return Span(span_id, 1, name, kind=kind, start=start,
                        end=end, cpu_start=start, cpu_end=end,
                        attributes={"rows": rows, "cache": cache})
        return [
            Span(1, None, "fig8_listless_vs_listbased", kind="query",
                 start=0.0, end=1.0, cpu_start=0.0, cpu_end=0.9),
            el(2, "src_new", "source", 0.00, 0.20, 16, "miss"),
            el(3, "src_old", "source", 0.20, 0.40, 16, "miss"),
            el(4, "max_new", "operator", 0.40, 0.41, 8, "hit"),
            el(5, "max_old", "operator", 0.41, 0.61, 8, "miss"),
            el(6, "reldiff", "operator", 0.61, 0.81, 8, "miss"),
            Span(7, 1, "chart", kind="output", start=0.81, end=0.86,
                 cpu_start=0.81, cpu_end=0.86, attributes={"rows": 0}),
            Span(8, 1, "table", kind="output", start=0.86, end=0.91,
                 cpu_start=0.86, cpu_end=0.91, attributes={"rows": 0}),
            Span(9, 1, "bars", kind="output", start=0.91, end=0.96,
                 cpu_start=0.91, cpu_end=0.96, attributes={"rows": 0}),
        ]

    def test_matches_cache_golden_file(self, fig8_query):
        text = explain(fig8_query, self.cache_spans())
        with open(self.CACHE_GOLDEN, encoding="utf-8") as fh:
            assert text == fh.read()

    def test_hit_and_miss_rendered(self, fig8_query):
        text = explain(fig8_query, self.cache_spans())
        assert "cache=HIT" in text
        assert "cache=MISS" in text
        # outputs carry no cache attribute -> no cache annotation
        chart_line = next(l for l in text.splitlines()
                          if l.startswith("chart "))
        assert "cache" not in chart_line

    def test_uncached_trace_unchanged(self, fig8_query):
        spans = [s for s in self.cache_spans()]
        for s in spans:
            s.attributes.pop("cache", None)
        assert "cache=" not in explain(fig8_query, spans)

    def test_mixed_outcomes_aggregate(self):
        spans = [
            Span(1, None, "s", kind="source", start=0.0, end=0.1,
                 attributes={"cache": "miss"}),
            Span(2, None, "s", kind="source", start=0.2, end=0.3,
                 attributes={"cache": "hit"}),
        ]
        st = rollup(spans)[("source", "s")]
        assert st.cache_hits == 1 and st.cache_misses == 1
        assert "cache=1xHIT/1xMISS" in st.annotation()

    def test_real_cached_run_annotates(self, beffio_experiment,
                                       fig8_query):
        cache = beffio_experiment.query_cache()
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            fig8_query.execute(beffio_experiment, cache=cache)
            fig8_query.execute(beffio_experiment, cache=cache)
        tracer.close()
        text = explain(fig8_query, tracer.spans)
        for name in ("src_new", "src_old", "max_new", "max_old",
                     "reldiff"):
            line = next(l for l in text.splitlines()
                        if name in l and "cache=" in l)
            assert "1xHIT/1xMISS" in line
