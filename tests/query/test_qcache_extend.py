"""Extending source entries: a re-analysis miss pays only for its new
runs.

One re-analysis cycle (cold run, import of one run that one source
matches, re-query) is pinned exactly: cache outcomes, the operands of
the extended source's statement and the statements of an all-hit
query.  The extension rule is exercised at its edges: an extension of
an extended entry, a deleted run, a schema change, an import no source
matches, more runs than one compound statement takes, and a base entry
gone before the store.
"""

from __future__ import annotations

import pytest

from repro import Experiment, Parameter, RunData
from repro.core import DataType, Occurrence
from repro.db.temptables import TempTableManager
from repro.obs import InMemorySink, Tracer, use_tracer
from repro.parallel import ParallelQueryExecutor, SimulatedCluster
from repro.parse import Importer
from repro.query import QueryCache, source as source_module
from repro.query.cache import plan_cached_run
from repro.testing import assert_identical, make_server, query_outcome
from repro.workloads.beffio_assets import (experiment_xml, fig8_query_xml,
                                           input_xml)
from repro.xmlio import (parse_experiment_xml, parse_input_xml,
                         parse_query_xml)

from ..conftest import fill_simple, make_simple_experiment
from .test_qcache import build_query

pytestmark = pytest.mark.qcache

COUNTERS = ("qcache.hits", "qcache.misses", "qcache.stores",
            "qcache.extensions", "db.statements")


def beffio(backend, campaign):
    definition = parse_experiment_xml(experiment_xml())
    exp = Experiment.create(make_server(backend), definition.name,
                            list(definition.variables), definition.info)
    importer = Importer(exp, parse_input_xml(input_xml()))
    for fname, content in campaign:
        importer.import_text(content, fname)
    return exp, importer


def run(executor, query, exp, cache):
    if executor == "serial":
        return query.execute(exp, cache=cache, pushdown=True)
    cluster = SimulatedCluster(2)
    try:
        return ParallelQueryExecutor(cluster).execute(
            query, exp, cache=cache, pushdown=True)[0]
    finally:
        cluster.shutdown()


def counted(fn, *args):
    tracer = Tracer(InMemorySink())
    with use_tracer(tracer):
        fn(*args)
    return tracer, tuple(int(tracer.metrics.counter(name).value)
                         for name in COUNTERS)


@pytest.fixture
def extensions(monkeypatch):
    """The fragments appended by each source store that copied its
    family's entry (an extension), by element name."""
    seen, appended = {}, []
    original_extension = source_module.Source.extension
    original_extend = QueryCache.extend

    def extension(self, experiment, runs):
        columns, fragments = original_extension(self, experiment, runs)
        appended[:] = fragments
        return columns, fragments

    def extend(self, base, key, source, *args, **kwargs):
        entry = original_extend(self, base, key, source, *args, **kwargs)
        if base is not None and entry.extensions > base.extensions:
            seen.setdefault(source.name, []).extend(appended)
        return entry

    monkeypatch.setattr(source_module.Source, "extension", extension)
    monkeypatch.setattr(QueryCache, "extend", extend)
    return seen


#: (hits, misses, stores, extensions, statements) of fig8 over the
#: 6-run ``beffio_campaign``: cold on 5 runs, re-queried after the
#: import of the 6th (which only ``src_new`` matches), then all hits —
#: through one shared cache instance, pushdown on.  Hits, misses and
#: stores equal those before extensions existed; the extended source
#: is one miss and one store.  Serially, the re-query leases the cold
#: run's temp table from the handle's pool instead of creating it.
CYCLE_COUNTS = {
    ("sqlite", "serial"): ((0, 5, 5, 0, 57), (2, 3, 3, 1, 38),
                           (5, 0, 0, 0, 10)),
    ("sqlite", "parallel"): ((0, 5, 5, 0, 76), (2, 3, 3, 1, 53),
                             (5, 0, 0, 0, 22)),
    ("memory", "serial"): ((0, 5, 5, 0, 54), (2, 3, 3, 1, 36),
                           (5, 0, 0, 0, 9)),
    ("memory", "parallel"): ((0, 5, 5, 0, 73), (2, 3, 3, 1, 51),
                             (5, 0, 0, 0, 21)),
}


@pytest.mark.parametrize("backend,executor", sorted(CYCLE_COUNTS))
def test_one_reanalysis_cycle_exact_counts(backend, executor,
                                           beffio_campaign, extensions):
    exp, importer = beffio(backend, beffio_campaign[:-1])
    cache = exp.query_cache()
    query = parse_query_xml(fig8_query_xml())
    cold = counted(run, executor, query, exp, cache)[1]
    importer.import_text(beffio_campaign[-1][1], beffio_campaign[-1][0])
    tracer, requery = counted(run, executor, query, exp, cache)
    warm = counted(run, executor, query, exp, cache)[1]
    assert (cold, requery, warm) == CYCLE_COUNTS[backend, executor]
    # the extended source's statement has one operand per new run
    (fragment,) = extensions["src_new"]
    assert fragment.sql.count(" UNION ALL ") + 1 == 1
    spans = [s for s in tracer.element_spans() if s.name == "src_new"]
    assert [(s.attributes["cache"], s.attributes["extended_runs"])
            for s in spans] == [("miss", 1)]
    assert cache.session.extensions == 1
    # and the result is the uncached one
    assert_identical(query_outcome(exp, query),
                     query_outcome(exp, query, cache=cache))


def test_all_hit_plan_statements(beffio_campaign):
    """An all-hit fig8 plan reads the schema counter, runs the two
    run selections, probes (metadata rows plus one catalogue check)
    and touches (tick plus one batched update): 7 statements through
    a cache that already checked the format and pruned at this schema
    counter, 9 through a new instance."""
    exp, _ = beffio("sqlite", beffio_campaign)
    graph = parse_query_xml(fig8_query_xml()).graph
    cache = exp.query_cache()
    run("serial", parse_query_xml(fig8_query_xml()), exp, cache)
    for qcache, statements in ((cache, 7), (exp.query_cache(), 9)):
        tracer, _ = counted(plan_cached_run, qcache, graph, exp)
        assert int(tracer.metrics.counter("db.statements").value) \
            == statements
        assert int(tracer.metrics.counter("qcache.hits").value) == 5


# -- the extension rule ------------------------------------------------------

@pytest.fixture
def exp(server):
    return fill_simple(make_simple_experiment(server))


def add_run(exp, technique="old", bw=999.0):
    return exp.store_run(RunData(
        once={"technique": technique, "fs": "ufs"},
        datasets=[{"S_chunk": 32, "access": "write", "bw": bw},
                  {"S_chunk": 1024, "access": "read", "bw": bw / 2}]))


def entries(cache):
    return {e.element: e for e in cache.entries()}


def rerun_equals_uncached(exp, cache):
    for parallel in (0, 2):
        assert_identical(
            query_outcome(exp, build_query(), pushdown=False),
            query_outcome(exp, build_query(), cache=cache,
                          parallel=parallel, pushdown=True))


def test_extension_of_an_extended_entry(exp):
    cache = exp.query_cache()
    build_query().execute(exp, cache=cache)
    before = entries(cache)["s2"]
    for step in (1, 2):
        add_run(exp, bw=900.0 + step)
        build_query().execute(exp, cache=cache)
        s2 = entries(cache)["s2"]
        assert s2.extensions == step
        assert s2.n_runs == before.n_runs + step
        assert s2.n_rows == before.n_rows + 2 * step
    assert cache.stat()["extensions"] == 2
    assert entries(cache)["s1"].extensions == 0
    rerun_equals_uncached(exp, cache)


def test_deleted_run_then_import_is_a_full_miss(exp, extensions):
    cache = exp.query_cache()
    build_query().execute(exp, cache=cache)
    exp.delete_run(exp.run_indices()[0])  # an "old" run: s2's first
    add_run(exp)
    build_query().execute(exp, cache=cache)
    assert extensions == {}
    assert entries(cache)["s2"].extensions == 0
    rerun_equals_uncached(exp, cache)


def test_schema_change_is_a_full_miss(exp, extensions):
    cache = exp.query_cache()
    build_query().execute(exp, cache=cache)
    exp.add_variable(Parameter("extra", datatype=DataType.FLOAT,
                               occurrence=Occurrence.ONCE))
    add_run(exp)
    build_query().execute(exp, cache=cache)
    assert extensions == {}
    rerun_equals_uncached(exp, cache)


def test_import_matching_no_source_hits(exp, extensions):
    cache = exp.query_cache()
    build_query().execute(exp, cache=cache)
    add_run(exp, technique="other")
    before = dict(cache.session)
    build_query().execute(exp, cache=cache)
    assert cache.session["hits"] - before["hits"] == 5
    assert extensions == {}


def chunk_inserts(tracer):
    """Statements that appended a source fragment to a payload table."""
    return [s for s in tracer.spans if s.kind == "db"
            and s.attributes.get("sql", "").startswith('INSERT INTO "pbc_')
            and " SELECT s." in s.attributes["sql"]]


@pytest.mark.parametrize("parallel", [0, 2])
def test_many_runs_store_in_chunks(exp, extensions, monkeypatch,
                                   parallel):
    """With one operand per statement, a cold store appends each of a
    source's runs in its own statement, and an extension each new run;
    both serve what an uncached run computes, and only the extension
    counts in ``qcache.extensions``."""
    monkeypatch.setattr(source_module, "MAX_COMPOUND_OPERANDS", 1)
    cache = exp.query_cache()
    tracer = Tracer(InMemorySink())
    with use_tracer(tracer):
        cold = query_outcome(exp, build_query(), cache=cache,
                             parallel=parallel, pushdown=True)
    assert len(chunk_inserts(tracer)) == 6  # s1 and s2 match 3 runs each
    assert cache.session.extensions == 0
    assert_identical(query_outcome(exp, build_query()), cold)
    add_run(exp)
    add_run(exp)
    tracer = Tracer(InMemorySink())
    with use_tracer(tracer):
        cached = query_outcome(exp, build_query(), cache=cache,
                               parallel=parallel, pushdown=True)
    assert len(chunk_inserts(tracer)) == 2
    assert [f.sql.count(" UNION ALL ") for f in extensions["s2"]] == [0, 0]
    assert cache.session.extensions == 1
    s2 = entries(cache)["s2"]
    assert (s2.extensions, s2.n_runs) == (1, 5)
    assert_identical(query_outcome(exp, build_query()), cached)


def test_base_entry_gone_stores_from_nothing(exp):
    """A concurrent run that stored the family meanwhile leaves the
    planned base entry gone: the source's store copies nothing and
    reads all of its runs."""
    cache = exp.query_cache()
    build_query().execute(exp, cache=cache)
    add_run(exp)
    query = build_query()
    plan = plan_cached_run(cache, query.graph, exp)
    assert set(plan.sources) == {"s2"}
    assert plan.sources["s2"] is not None
    cache.clear()
    vector = plan.extend(query.elements["s2"], exp, "q")
    assert vector.rows() == build_query().execute(
        exp, keep_temp_tables=True).vectors["s2"].rows()
    assert cache.session.extensions == 0
    s2 = entries(cache)["s2"]
    assert (s2.extensions, s2.n_runs, s2.n_rows) == (0, 4, 20)
    rerun_equals_uncached(exp, cache)


@pytest.mark.parametrize("parallel", [0, 2])
def test_source_miss_writes_no_temp_table(exp, monkeypatch, parallel):
    """A missed source is stored straight into its ``pbc_`` table: no
    temp table (``pbq_`` serial, per node parallel) is made for it,
    cold or extending."""
    made = []
    original = TempTableManager.new_table

    def new_table(self, element_name, columns):
        made.append(element_name)
        return original(self, element_name, columns)

    monkeypatch.setattr(TempTableManager, "new_table", new_table)
    cache = exp.query_cache()
    for step in ("cold", "extend"):
        if step == "extend":
            add_run(exp)
        query_outcome(exp, build_query(), cache=cache, parallel=parallel,
                      pushdown=True)
    assert made and not {"s1", "s2"} & set(made)
    assert cache.session.extensions == 1


@pytest.mark.parametrize("parallel", [0, 2])
def test_budget_spares_the_entries_a_run_installed(exp, parallel):
    """Under a budget every store exceeds, a store never evicts what
    the running query installed: hit payloads its later elements read
    (here ``a1``, read by ``c``) and an extension's new payload (``s2``,
    read by ``a2``).  Evicting them used to fail the query with ``no
    such table``."""
    cache = exp.query_cache()
    build_query().execute(exp, cache=cache)
    add_run(exp)
    cache.budget_bytes = 1
    before = dict(cache.session)
    cached = query_outcome(exp, build_query(), cache=cache,
                           parallel=parallel, pushdown=True)
    assert cache.session.extensions == 1
    assert cache.session["hits"] - before["hits"] == 2
    assert cache.session["evictions"] - before["evictions"] >= 1
    assert_identical(query_outcome(exp, build_query()), cached)
