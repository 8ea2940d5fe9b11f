"""The serial engine and the parallel executor share one cache plan and
one record of what ran: the element spans.

* ``profile=True`` yields the same element timings on both executors,
  cold and warm — structural hits resolved before scheduling included;
* a cache hit's span encloses the load of the cached vector;
* exact counter pins (cache hits/misses/stores and SQL statements) for
  cold, warm and after-import runs, per executor, backend and pushdown.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import Experiment
from repro.obs import InMemorySink, Tracer, current_span, use_tracer
from repro.parallel import ParallelQueryExecutor, SimulatedCluster
from repro.parse import Importer
from repro.query import QueryCache
from repro.testing import make_server
from repro.workloads.beffio_assets import (experiment_xml, fig8_query_xml,
                                           input_xml, stddev_query_xml)
from repro.xmlio import (parse_experiment_xml, parse_input_xml,
                         parse_query_xml)

pytestmark = pytest.mark.qcache

QUERIES = {"fig8": fig8_query_xml, "stddev": stddev_query_xml}
EXECUTORS = ("serial", "parallel")


def beffio(backend, campaign):
    definition = parse_experiment_xml(experiment_xml())
    exp = Experiment.create(make_server(backend), definition.name,
                            list(definition.variables), definition.info)
    importer = Importer(exp, parse_input_xml(input_xml()))
    for fname, content in campaign:
        importer.import_text(content, fname)
    return exp, importer


def run(executor, xml, exp, **kwargs):
    """One query run on the serial engine or a 2-node cluster."""
    query = parse_query_xml(xml)
    if executor == "serial":
        return query.execute(exp, cache=True, **kwargs)
    cluster = SimulatedCluster(2)
    try:
        result, _ = ParallelQueryExecutor(cluster).execute(
            query, exp, cache=True, **kwargs)
    finally:
        cluster.shutdown()
    return result


def traced(executor, xml, exp, **kwargs):
    tracer = Tracer(InMemorySink())
    with use_tracer(tracer):
        result = run(executor, xml, exp, profile=True, **kwargs)
    return result, tracer


def timings(result):
    return Counter((t.name, t.kind, t.rows, t.cols, t.cached)
                   for t in result.profile.timings)


def cache_attrs(tracer):
    return Counter((s.name, s.kind, s.attributes.get("cache"),
                    s.attributes.get("fused"))
                   for s in tracer.element_spans())


@pytest.mark.parametrize("query,pushdown", [
    pytest.param(query, pushdown,
                 id=query + ("-pushdown" if pushdown else ""))
    for query in sorted(QUERIES) for pushdown in (False, True)])
def test_profiles_and_spans_agree_across_executors(query, pushdown,
                                                   beffio_campaign):
    """Cold and warm, both executors record every element once, with
    the same rows, columns, cache outcome and fused group."""
    seen = {}
    for executor in EXECUTORS:
        exp, _ = beffio("sqlite", beffio_campaign)
        for phase in ("cold", "warm"):
            result, tracer = traced(executor, QUERIES[query](), exp,
                                    pushdown=pushdown)
            profile = result.profile
            assert sorted(t.name for t in profile.timings) == \
                sorted(parse_query_xml(QUERIES[query]()).elements)
            # mid-run and upfront hits are timed like every element
            assert all(t.seconds > 0 for t in profile.timings)
            seen[executor, phase] = (timings(result),
                                     cache_attrs(tracer))
    for phase in ("cold", "warm"):
        assert seen["serial", phase] == seen["parallel", phase], phase
    assert seen["serial", "cold"] != seen["serial", "warm"]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_hit_span_encloses_the_load(executor, beffio_campaign,
                                    monkeypatch):
    """Every statement a cache load issues is a child of its element's
    ``cache="hit"`` span."""
    exp, _ = beffio("sqlite", beffio_campaign)
    run(executor, fig8_query_xml(), exp)  # cold: fill the cache
    loaded = []
    original = QueryCache.load

    def load(self, entry):
        vector = original(self, entry)
        vector.rows()  # one read of the pbc_ payload table
        loaded.append((entry.element, current_span()))
        return vector

    monkeypatch.setattr(QueryCache, "load", load)
    _, tracer = traced(executor, fig8_query_xml(), exp)
    hits = {s.span_id: s for s in tracer.element_spans()
            if s.attributes.get("cache") == "hit"}
    assert len(loaded) == len(hits) == 5
    for element, span in loaded:
        assert span is not None and span.span_id in hits
        assert hits[span.span_id].name == element
    reads = [s for s in tracer.spans
             if s.kind == "db" and s.parent_id in hits]
    assert len(reads) == 5
    assert all(s.attributes["sql"].startswith("SELECT")
               and "pbc_" in s.attributes["sql"] for s in reads)


#: (qcache.hits, qcache.misses, qcache.stores, db.statements) of fig8
#: cold, warm, and re-queried after one more import, over the 6-run
#: ``beffio_campaign`` (5 runs before the import), by backend, executor
#: and pushdown.  A missed source is stored straight into its entry by
#: one ``INSERT … UNION ALL`` over its runs on the experiment database,
#: with or without pushdown and on either executor.  The serial
#: re-query leases the cold run's temp table from the handle's pool
#: (the cluster's node handles are fresh per run).
EXACT_COUNTS = {
    ("sqlite", "serial", False): ((0, 5, 5, 57), (5, 0, 0, 12),
                                  (2, 3, 3, 40)),
    ("sqlite", "parallel", False): ((0, 5, 5, 76), (5, 0, 0, 24),
                                    (2, 3, 3, 55)),
    ("memory", "serial", False): ((0, 5, 5, 54), (5, 0, 0, 11),
                                  (2, 3, 3, 38)),
    ("memory", "parallel", False): ((0, 5, 5, 73), (5, 0, 0, 23),
                                    (2, 3, 3, 53)),
    ("sqlite", "serial", True): ((0, 5, 5, 57), (5, 0, 0, 12),
                                 (2, 3, 3, 40)),
    ("sqlite", "parallel", True): ((0, 5, 5, 76), (5, 0, 0, 24),
                                   (2, 3, 3, 55)),
    ("memory", "serial", True): ((0, 5, 5, 54), (5, 0, 0, 11),
                                 (2, 3, 3, 38)),
    ("memory", "parallel", True): ((0, 5, 5, 73), (5, 0, 0, 23),
                                   (2, 3, 3, 53)),
}
#: the (backend, executor) pairs the cache tests run on
BACKEND_EXECUTORS = sorted({key[:2] for key in EXACT_COUNTS})


@pytest.mark.parametrize("backend,executor,pushdown", [
    pytest.param(*key, id="-".join(key[:2])
                 + ("-pushdown" if key[2] else ""))
    for key in sorted(EXACT_COUNTS)])
def test_exact_cache_plan_counts(backend, executor, pushdown,
                                 beffio_campaign):
    exp, importer = beffio(backend, beffio_campaign[:-1])
    counts = []
    for phase in ("cold", "warm", "requery"):
        if phase == "requery":
            importer.import_text(beffio_campaign[-1][1],
                                 beffio_campaign[-1][0])
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            run(executor, fig8_query_xml(), exp, pushdown=pushdown)
        counts.append(tuple(
            int(tracer.metrics.counter(name).value)
            for name in ("qcache.hits", "qcache.misses",
                         "qcache.stores", "db.statements")))
    assert tuple(counts) == EXACT_COUNTS[backend, executor, pushdown]


def test_concurrent_profiled_runs_on_one_tracer(server):
    """Stress: profiled cached 2-node runs on three threads share one
    tracer (six workers for fewer cores).  Each profile holds exactly
    its own run's elements, each run probes every cacheable element
    once, and the tracer ends with its own sinks only."""
    import sys
    import threading

    from tests.conftest import fill_simple, make_simple_experiment
    from tests.query.test_qcache import build_query

    exp = fill_simple(make_simple_experiment(server))
    cache = exp.query_cache()
    base = InMemorySink()
    tracer = Tracer(base)
    outcomes, errors = [], []

    def worker(i):
        cluster = SimulatedCluster(2)
        try:
            with use_tracer(tracer):
                for _ in range(3):
                    result, stats = ParallelQueryExecutor(
                        cluster).execute(build_query(f"q{i}"), exp,
                                         cache=cache, profile=True)
                    outcomes.append((i, result.profile, stats))
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            cluster.shutdown()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(outcomes) == 9
    elements = sorted(build_query().elements)
    for i, profile, stats in outcomes:
        assert profile.query_name == f"q{i}"
        assert sorted(t.name for t in profile.timings) == elements
        assert stats.cache_hits + stats.cache_misses == 5
    assert tracer.sinks == [base]
