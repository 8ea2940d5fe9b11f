"""The always-on metrics registry and the one span rollup.

Counters are written whether or not a tracer is active, and every view
(a tracer's ``metrics``, a service's ``stats()``) reports the difference
since it opened; EXPLAIN ANALYZE, ``summary_table`` and ``trace-diff``
all read one per-element rollup, so they agree on every element.
"""

import re
import sys
import threading

import pytest

from repro import MemoryServer
from repro.obs import (JsonLinesSink, MetricsView, Span, Tracer, count,
                       current_span, diff_traces, explain, read_trace,
                       rollup, summary_table, use_tracer)
from repro.parallel import ParallelQueryExecutor, SimulatedCluster
from repro.service import ExperimentService
from repro.workloads.beffio_assets import (fig8_query_xml,
                                           stddev_query_xml)
from repro.xmlio import parse_query_xml
from tests.parallel.test_cache_plan import beffio

pytestmark = pytest.mark.obs

STATEMENT_COUNTERS = ("db.statements", "db.rows_fetched")


@pytest.mark.parametrize("backend", ["sqlite", "memory"])
def test_untraced_run_counts_like_a_traced_one(backend, beffio_campaign):
    """The statement counters do not depend on tracing, and tracing
    issues no statement of its own: for fig8 and stddev, fused and
    unfused, a traced query counts the statements and fetched rows of
    an untraced one, and one ``db`` span per statement.  Fused,
    stddev's whole diamond runs as one group, accounted to its tail.
    A first, unmeasured run of each leg warms SQLite's catalogue memo,
    so both measured runs fetch the same catalogue rows."""
    exp, _ = beffio(backend, beffio_campaign)
    for name, xml in (("fig8", fig8_query_xml()),
                      ("stddev", stddev_query_xml())):
        query = parse_query_xml(xml)
        for pushdown in (False, True):
            query.execute(exp, pushdown=pushdown)
            untraced = MetricsView()
            query.execute(exp, pushdown=pushdown)
            untraced.close()
            tracer = Tracer()
            with use_tracer(tracer):
                query.execute(exp, pushdown=pushdown)
            tracer.close()

            leg = (name, pushdown)
            moved = [tuple(view.counter(counter).value
                           for counter in STATEMENT_COUNTERS)
                     for view in (untraced, tracer.metrics)]
            db_spans = [s for s in tracer.spans if s.kind == "db"]
            assert moved[1] == moved[0], leg
            assert moved[1][0] == len(db_spans), leg
            assert moved[0][1] > 0, leg
            if leg == ("stddev", True):
                fused = [s.attributes.get("fused") for s in tracer.spans
                         if s.name == "both"]
                assert fused == ["src,mean,spread,both"]


def test_untraced_transfers_move_the_transfer_counters(beffio_campaign):
    """The ``transfer.*`` counters are always on: an untraced 2-node
    fig8 moves ``transfer.vectors`` by the executor's own count of
    inter-node vector transfers."""
    exp, _ = beffio("sqlite", beffio_campaign)
    cluster = SimulatedCluster(2)
    view = MetricsView()
    try:
        _, stats = ParallelQueryExecutor(cluster).execute(
            parse_query_xml(fig8_query_xml()), exp)
    finally:
        cluster.shutdown()
        view.close()
    assert stats.transfers > 0
    assert view.counter("transfer.vectors").value == stats.transfers
    assert view.counter("transfer.rows").value > 0


@pytest.mark.service
def test_concurrent_services_see_each_others_sessions():
    tracer = Tracer()
    with use_tracer(tracer):
        earlier = ExperimentService(server=MemoryServer())
        held = [earlier.session("a"), earlier.session("b")]
        service = ExperimentService(server=MemoryServer())
        with service.session("c"):
            gauges = service.stats()["gauges"]
            assert gauges["service.sessions_open"] == 1
            # an open view counts the whole process's work
            assert (earlier.stats()["gauges"]["service.sessions_open"]
                    == 3)
            assert tracer.metrics.gauge("service.sessions_open").value == 3
        for session in held:
            session.close()
        earlier.close()
        service.close()
    assert tracer.metrics.gauge("service.sessions_open").value == 0
    # closing sessions out of order leaves no finished session span
    # behind as the context's current span
    assert current_span() is None


def _explain_numbers(text):
    found = {}
    for line in text.splitlines():
        m = re.search(r"(\w+) \[.*\(calls=(\d+) wall=([\d.]+)ms "
                      r"cpu=[\d.]+ms rows=(\d+)", line)
        if m:
            found[m.group(1)] = (int(m.group(2)), float(m.group(3)),
                                 int(m.group(4)))
    return found


def _summary_numbers(text):
    found = {}
    for line in text.splitlines():
        m = re.match(r"(source|operator|combiner|output) +(\w+) +(\d+) +"
                     r"([\d.]+) +[\d.]+ +(\d+)$", line)
        if m:
            found[m.group(2)] = (int(m.group(3)),
                                 float(m.group(4)) * 1e3, int(m.group(5)))
    return found


def _diff_numbers(diff):
    rows = {d.name: d.base_rows for d in diff.deltas}
    found = {}
    for line in diff.report().splitlines():
        m = re.match(r"\w+ +(\w+) +(\d+)/\d+ +([\d.]+) ", line)
        if m:
            found[m.group(1)] = (int(m.group(2)), float(m.group(3)),
                                 rows[m.group(1)])
    return found


@pytest.mark.obs_analytics
def test_explain_summary_and_diff_agree_per_element(beffio_campaign,
                                                    tmp_path):
    """One recorded 2-node cached fig8 trace (a cold and a warm run):
    every element's calls, wall time and rows read the same in all
    three renderings, up to each one's printed precision."""
    exp, _ = beffio("sqlite", beffio_campaign)
    query = parse_query_xml(fig8_query_xml())
    cache = exp.query_cache()
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(JsonLinesSink(path))
    cluster = SimulatedCluster(2)
    try:
        with use_tracer(tracer):
            for _ in range(2):
                ParallelQueryExecutor(cluster).execute(query, exp,
                                                       cache=cache)
    finally:
        cluster.shutdown()
        tracer.close()
    trace = read_trace(path)

    by_explain = _explain_numbers(explain(query, trace))
    by_summary = _summary_numbers(summary_table(trace.spans))
    by_diff = _diff_numbers(diff_traces(trace, trace))
    assert set(by_explain) == set(query.elements)
    assert set(by_summary) == set(by_diff) == set(by_explain)
    for name, (calls, wall_ms, rows) in by_explain.items():
        assert calls == 2
        for other in (by_summary[name], by_diff[name]):
            assert other[0] == calls and other[2] == rows
            assert other[1] == pytest.approx(wall_ms, abs=1.1e-3)


@pytest.mark.obs_analytics
def test_rollup_survives_cyclic_parent_links():
    """A hand-edited or corrupted trace file may link spans in a cycle."""
    spans = [Span(1, 1, "q", kind="query", start=0.0, end=1.0),
             Span(2, 3, "s", kind="source", start=0.0, end=0.5,
                  attributes={"bytes": 5}),
             Span(3, 2, "stmt", kind="db", start=0.1, end=0.2,
                  attributes={"bytes": 7})]
    totals = rollup(spans)
    assert totals[("query", "q")].calls == 1
    assert totals[("source", "s")].bytes == 12


def test_count_from_many_threads_is_exact():
    """More writer threads than cores and a tiny switch interval: a lost
    update on the lock-free lookup or the locked add would show."""
    name = "test.registry.stress"
    threads, per_thread = 8, 2000
    view = MetricsView()
    barrier = threading.Barrier(threads)

    def work():
        barrier.wait()
        for _ in range(per_thread):
            count(name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert view.counter(name).value == threads * per_thread
