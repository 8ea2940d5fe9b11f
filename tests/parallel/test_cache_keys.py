"""One cache key per element: sources are keyed by the runs they read.

* an import that matches none of a query's sources leaves the next
  cached run fully structural, on both backends and both executors:
  every cacheable element hits, nothing misses or is stored, and no
  element ``INSERT`` runs;
* a run imported between planning and execution stays out of the
  entries the run stores, whose keys do not name it;
* entries written under the previous key scheme are dropped on first
  use.
"""

from __future__ import annotations

import pytest

from repro import RunData
from repro.core import DataType, Result
from repro.obs import InMemorySink, Tracer, use_tracer
from repro.parallel import ParallelQueryExecutor, SimulatedCluster
from repro.parallel import executor as parallel_executor
from repro.query import cache as query_cache
from repro.query import Output, ParameterSpec, Query, Source, engine
from repro.query.cache import CACHE_PREFIX, CACHE_TABLE
from repro.workloads.beffio import generate_campaign
from repro.workloads.beffio_assets import fig8_query_xml
from repro.xmlio import parse_query_xml

from ..conftest import make_simple_experiment
from .test_cache_plan import BACKEND_EXECUTORS, EXECUTORS, beffio, run

pytestmark = pytest.mark.qcache

FIG8_CACHEABLE = ["max_new", "max_old", "reldiff", "src_new", "src_old"]


@pytest.mark.parametrize("pushdown", [False, True])
@pytest.mark.parametrize("backend,executor", BACKEND_EXECUTORS)
def test_unmatched_import_is_all_hits(backend, executor, pushdown,
                                      beffio_campaign):
    exp, importer = beffio(backend, beffio_campaign)
    run(executor, fig8_query_xml(), exp, pushdown=pushdown)  # cold
    # fig8 reads ufs runs only: an nfs run matches neither source
    (fname, content), = generate_campaign(
        techniques=("listless",), filesystems=("nfs",), repetitions=1)
    importer.import_text(content, fname)
    tracer = Tracer(InMemorySink())
    with use_tracer(tracer):
        run(executor, fig8_query_xml(), exp, pushdown=pushdown)
    assert tuple(int(tracer.metrics.counter(name).value)
                 for name in ("qcache.hits", "qcache.misses",
                              "qcache.stores")) == (5, 0, 0)
    # (the parallel executor still ships the cached vector to the
    # output's node: ``_xfer_`` copies are not element runs)
    inserts = [s.attributes["sql"] for s in tracer.spans
               if s.kind == "db"
               and s.attributes.get("sql", "").startswith("INSERT")
               and "_xfer_" not in s.attributes["sql"]]
    assert inserts == []


def artifacts(result):
    return [(a.name, a.content) for a in result.artifacts]


@pytest.mark.parametrize("pushdown", [False, True])
@pytest.mark.parametrize("executor", EXECUTORS)
def test_run_imported_after_planning_stays_out(executor, pushdown,
                                               beffio_campaign,
                                               monkeypatch):
    exp, importer = beffio("sqlite", beffio_campaign[:-1])
    before = artifacts(parse_query_xml(fig8_query_xml()).execute(exp))

    def plan_then_import(*args):
        plan = query_cache.plan_cached_run(*args)
        importer.import_text(beffio_campaign[-1][1],
                             beffio_campaign[-1][0])
        return plan

    for module in (engine, parallel_executor):
        monkeypatch.setattr(module, "plan_cached_run", plan_then_import)
    racing = run(executor, fig8_query_xml(), exp, pushdown=pushdown)
    monkeypatch.undo()
    # the run read exactly the runs it was planned (and keyed) with
    assert artifacts(racing) == before
    # so once the imported run is gone again, its entries are right
    exp.delete_run(exp.run_indices()[-1])
    assert artifacts(run(executor, fig8_query_xml(), exp,
                         pushdown=pushdown)) == before


@pytest.mark.parametrize("executor", EXECUTORS)
def test_run_level_source_reads_its_planned_runs(executor, server,
                                                 monkeypatch):
    """The same for a source of run-level values only, whose fused
    form selects straight off the once table."""
    exp = make_simple_experiment(server)
    exp.add_variable(Result("total", datatype=DataType.FLOAT))
    for i, technique in enumerate(("old", "new", "new")):
        exp.store_run(RunData(once={"technique": technique, "fs": "ufs",
                                    "total": float(i)}, datasets=[]))
    query = lambda: Query([
        Source("s", parameters=[ParameterSpec("technique", "new")],
               results=["total"], include_run_index=True),
        Output("o", inputs=["s"], format="csv")], name="totals")
    before = artifacts(query().execute(exp))

    def plan_then_import(*args):
        plan = query_cache.plan_cached_run(*args)
        exp.store_run(RunData(once={"technique": "new", "fs": "nfs",
                                    "total": 9.0}, datasets=[]))
        return plan

    def cached():
        if executor == "serial":
            return query().execute(exp, cache=True, pushdown=True)
        cluster = SimulatedCluster(2)
        try:
            return ParallelQueryExecutor(cluster).execute(
                query(), exp, cache=True, pushdown=True)[0]
        finally:
            cluster.shutdown()

    for module in (engine, parallel_executor):
        monkeypatch.setattr(module, "plan_cached_run", plan_then_import)
    assert artifacts(cached()) == before
    monkeypatch.undo()
    exp.delete_run(exp.run_indices()[-1])
    assert artifacts(cached()) == before


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_old_scheme_entries_dropped_on_first_use(backend,
                                                 beffio_campaign):
    exp, _ = beffio(backend, beffio_campaign)
    db = exp.store.db
    # the previous scheme's metadata table with one entry and payload
    old_table = CACHE_PREFIX + "0123456789abcdef01234567"
    db.execute(
        f"CREATE TABLE {CACHE_TABLE} (key TEXT PRIMARY KEY, skey TEXT, "
        "element TEXT, kind TEXT, query_name TEXT, table_name TEXT, "
        "result_hash TEXT, data_version INTEGER, n_rows INTEGER, "
        "n_bytes INTEGER, columns TEXT, from_source INTEGER, "
        "hits INTEGER, tick INTEGER, created TEXT)")
    db.create_table(old_table, [("v", "REAL")])
    db.execute(
        f"INSERT INTO {CACHE_TABLE} VALUES "
        "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        ("0123456789abcdef01234567", "s", "reldiff", "operator",
         "fig8", old_table, "h", 10**6, 0, 0, "[]", 0, 0, 1, ""))
    db.commit()
    run("serial", fig8_query_xml(), exp)
    tables = sorted(t for t in db.list_tables()
                    if t.startswith(CACHE_PREFIX))
    assert old_table not in tables and len(tables) == 5
    entries = exp.query_cache().entries()
    assert sorted(e.element for e in entries) == FIG8_CACHEABLE
    assert sorted(e.table for e in entries) == tables
