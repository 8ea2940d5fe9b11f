"""Faults in the middle of a source-entry extension.

An extension copies the old payload into a new ``pbc_`` table, then
appends the new runs' rows, then writes the metadata row.  The
``cache.put`` check between the copy and the append (``stage=extend``)
is where these tests inject: a crash there leaves at most a payload
table without its metadata row, which ``fsck`` repairs and the next
cached run replaces; a transient lock there is retried, re-running the
whole extension.
"""

from __future__ import annotations

import pytest

from repro.db import fsck
from repro.faults import CrashFault, FaultPlan, use_faults
from repro.obs import InMemorySink, Tracer, use_tracer
from repro.query.cache import CACHE_PREFIX, CACHE_TABLE
from repro.testing import assert_identical, make_server, query_outcome

from ..conftest import fill_simple, make_simple_experiment
from ..query.test_qcache import build_query
from ..query.test_qcache_extend import add_run, entries

pytestmark = [pytest.mark.faults, pytest.mark.qcache]

BACKENDS = ("sqlite", "memory")
EXECUTORS = (0, 2)  # serial, 2-node parallel


def filled(backend):
    exp = fill_simple(make_simple_experiment(make_server(backend)))
    cache = exp.query_cache()
    query_outcome(exp, build_query(), cache=cache, pushdown=True)
    add_run(exp)  # s2's run set now extends its cached entry
    return exp, cache


def orphans(exp):
    db = exp.store.db
    known = {row[0] for row in db.fetchall(
        f"SELECT table_name FROM {CACHE_TABLE}")}
    return [t for t in db.list_tables()
            if t.startswith(CACHE_PREFIX) and t not in known]


def assert_serves_uncached(exp, cache):
    reference = query_outcome(exp, build_query())
    for parallel in EXECUTORS:
        assert_identical(reference, query_outcome(
            exp, build_query(), cache=cache, parallel=parallel,
            pushdown=True), f"parallel={parallel}")


@pytest.mark.parametrize("parallel", EXECUTORS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("reopen", [True, False],
                         ids=["rolled-back", "continued"])
def test_crash_mid_extension(backend, parallel, reopen):
    """Rolled back (a reopened database) or continued on the same
    connection, a crash between the copy and the new runs leaves a
    state the next cached run serves byte-identically; fsck repairs
    whatever payload table is left."""
    exp, cache = filled(backend)
    plan = FaultPlan()
    plan.add("crash", "cache.put", stage="extend", times=1)
    with use_faults(plan):
        with pytest.raises(CrashFault):
            query_outcome(exp, build_query(), cache=cache,
                          parallel=parallel, pushdown=True)
    assert plan.fired("crash") == 1
    if reopen:
        exp.store.db.rollback()
    leftover = orphans(exp)
    assert len(leftover) <= 1
    report = fsck(exp.store)
    assert report.by_category().get("orphan-cache", 0) == len(leftover)
    assert orphans(exp) == []
    assert_serves_uncached(exp, cache)
    assert entries(cache)["s2"].extensions == 1
    assert orphans(exp) == []


@pytest.mark.parametrize("parallel", EXECUTORS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_mid_extension_then_rerun_without_fsck(backend, parallel):
    """Without a repair, the next extension replaces the leftover
    payload table instead of appending to it."""
    exp, cache = filled(backend)
    plan = FaultPlan()
    plan.add("crash", "cache.put", stage="extend", times=1)
    with use_faults(plan):
        with pytest.raises(CrashFault):
            query_outcome(exp, build_query(), cache=cache,
                          parallel=parallel, pushdown=True)
    assert_serves_uncached(exp, cache)
    s2 = entries(cache)["s2"]
    assert (s2.extensions, s2.n_runs) == (1, 4)
    assert orphans(exp) == []


@pytest.mark.parametrize("parallel", EXECUTORS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_lock_mid_extension_is_retried(backend, parallel):
    """A transient lock between the copy and the new runs is retried:
    the extension runs again from the start, stores once, and leaves
    nothing behind."""
    exp, cache = filled(backend)
    plan = FaultPlan()
    plan.add("lock", "cache.put", stage="extend", times=2)
    tracer = Tracer(InMemorySink())
    with use_faults(plan), use_tracer(tracer):
        query_outcome(exp, build_query(), cache=cache,
                      parallel=parallel, pushdown=True)
    assert plan.fired("lock") == 2
    metrics = tracer.metrics
    assert metrics.counter("retry.retries").value >= 2
    assert metrics.counter("retry.recovered").value >= 1
    assert metrics.counter("qcache.extensions").value == 1
    assert metrics.counter("qcache.stores").value == 3
    assert entries(cache)["s2"].extensions == 1
    assert orphans(exp) == []
    assert fsck(exp.store).by_category().get("orphan-cache", 0) == 0
    assert_serves_uncached(exp, cache)
