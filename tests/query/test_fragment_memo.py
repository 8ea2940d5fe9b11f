"""Warm fused queries rebuild nothing they built last time.

A source keeps its fragments on the experiment handle, and the columnar
engine keeps the batches of a ``UNION ALL`` on its database.  A second
warm fused fig8 then builds no operand text, and on the columnar engine
compiles no plan and joins no column, while both engines issue exactly
the statements of the first warm run.  A fused group that falls back
builds its operands once.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import Experiment
from repro.db import memory_backend
from repro.db.schema import ExperimentStore
from repro.obs import InMemorySink, Tracer, use_tracer
from repro.obs.metrics import REGISTRY
from repro.query import source as source_module
from repro.testing import query_outcome, snapshot_result
from repro.workloads.beffio_assets import fig8_query_xml, stddev_query_xml
from repro.xmlio import parse_query_xml

from .test_qcache_extend import beffio
from .test_source_fragments import PER_DATASET, per_dataset

pytestmark = pytest.mark.pushdown

BACKENDS = ["sqlite", "memory"]


@pytest.fixture
def operand_builds(monkeypatch):
    """The name of the source of each :meth:`Source._run_operands`
    call."""
    calls = []
    original = source_module.Source._run_operands

    def run_operands(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(source_module.Source, "_run_operands",
                        run_operands)
    return calls


@pytest.fixture
def column_joins(monkeypatch):
    """The name of each column a columnar batch joins up from its
    operands' tables."""
    calls = []
    original = memory_backend._Columns.__missing__

    def missing(self, name):
        calls.append(name)
        return original(self, name)

    monkeypatch.setattr(memory_backend._Columns, "__missing__", missing)
    return calls


def counted(query, exp) -> tuple[dict, int, int]:
    """A fused run of ``query``: its snapshot, ``db.statements`` and
    ``db.plans_compiled``."""
    tracer = Tracer(InMemorySink())
    before = REGISTRY.values().get("db.plans_compiled", 0)
    with use_tracer(tracer):
        result = query.execute(exp, pushdown=True)
    return (snapshot_result(result),
            int(tracer.metrics.counter("db.statements").value),
            REGISTRY.values().get("db.plans_compiled", 0) - before)


@pytest.mark.parametrize("backend", BACKENDS)
def test_second_warm_fused_fig8_builds_nothing(backend, beffio_campaign,
                                               operand_builds,
                                               column_joins):
    exp, _ = beffio(backend, beffio_campaign)
    query = parse_query_xml(fig8_query_xml())
    query.execute(exp, pushdown=True)
    assert sorted(operand_builds) == ["src_new", "src_old"]
    # each source's one batch joins the six columns it reads: access,
    # S_chunk, the three results and the data-set ordinal
    assert len(column_joins) == (0 if backend == "sqlite" else 2 * 6)

    warm, warm_statements, _ = counted(query, exp)
    del operand_builds[:], column_joins[:]
    again, statements, plans = counted(query, exp)
    assert operand_builds == []
    assert column_joins == []
    assert plans == 0
    assert statements == warm_statements
    assert again == warm


@pytest.mark.parametrize("backend", BACKENDS)
def test_fallback_builds_its_operands_once(backend, beffio_campaign,
                                           operand_builds, monkeypatch):
    """Three fragments do not fit one fused statement: ``fuse`` raises
    and the source runs element-wise on the fragments it built."""
    monkeypatch.setattr(source_module, "MAX_COMPOUND_OPERANDS", 2)
    exp, _ = beffio(backend, beffio_campaign)
    tracer = Tracer(InMemorySink())
    with use_tracer(tracer):
        outcome = query_outcome(exp, per_dataset(), pushdown=True)
    assert tracer.metrics.counter("pushdown.fallbacks").value == 1
    assert outcome["vectors"]["s"]["rows"] == PER_DATASET
    assert operand_builds == ["s"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_memo_is_per_handle_and_per_source(backend, beffio_campaign,
                                           operand_builds):
    """fig8 and stddev keep their sources side by side, and a handle
    opened afresh on the same database builds its own."""
    exp, _ = beffio(backend, beffio_campaign)
    fig8 = parse_query_xml(fig8_query_xml())
    stddev = parse_query_xml(stddev_query_xml())
    for _ in range(2):
        for query in (fig8, stddev):
            query.execute(exp, pushdown=True)
    assert sorted(operand_builds) == ["src", "src_new", "src_old"]
    assert len(exp.store.source_fragments) == 3
    fig8.execute(Experiment(exp.name, ExperimentStore(exp.store.db)),
                 pushdown=True)
    assert sorted(operand_builds) == ["src", "src_new", "src_new",
                                      "src_old", "src_old"]


def test_memo_keeps_a_bounded_number_of_sources(beffio_campaign,
                                                monkeypatch):
    monkeypatch.setattr(source_module, "FRAGMENT_MEMO_SOURCES", 2)
    exp, _ = beffio("sqlite", beffio_campaign)
    for access in ("read", "write"):
        parse_query_xml(fig8_query_xml(access)).execute(exp, pushdown=True)
    assert len(exp.store.source_fragments) == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_variable_definitions_key_the_memo(backend, beffio_campaign,
                                           operand_builds):
    """A handle that decodes its variables again, as a pooled service
    handle does on each checkout, keeps its fragments; a changed
    definition of a variable the source reads builds them again."""
    exp, _ = beffio(backend, beffio_campaign)
    query = parse_query_xml(stddev_query_xml())
    query.execute(exp, pushdown=True)
    exp._variables = None
    exp.store.invalidate_variables_cache()
    query.execute(exp, pushdown=True)
    assert operand_builds == ["src"]
    scatter = exp.variables["B_scatter"]
    exp.modify_variable(dataclasses.replace(scatter,
                                            synopsis="scatter rate"))
    result = query.execute(exp, pushdown=True)
    assert operand_builds == ["src", "src"]
    assert "avg of scatter rate" in [c.synopsis for c in
                              result.vectors["both"].columns]


def test_first_queries_after_own_import_probe_no_run_table(
        beffio_campaign):
    """The handle that created the run tables knows their columns: the
    catalogue probe of the first fused fig8 and stddev returns the
    schema cookie's row alone."""
    exp, _ = beffio("sqlite", beffio_campaign)
    # fig8 has two sources, stddev one
    for xml, sources in ((fig8_query_xml(), 2), (stddev_query_xml(), 1)):
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            parse_query_xml(xml).execute(exp, pushdown=True)
        probes = [span.attributes["rows"] for span in tracer.spans
                  if span.attributes.get("sql", "").startswith(
                      "SELECT schema_version")]
        assert probes == [1] * sources


@pytest.fixture
def batch_builds(monkeypatch):
    """One entry per :meth:`MemoryDatabase._compound_batches` call."""
    calls = []
    original = memory_backend.MemoryDatabase._compound_batches

    def compound_batches(self, stmt):
        calls.append(stmt)
        return original(self, stmt)

    monkeypatch.setattr(memory_backend.MemoryDatabase,
                        "_compound_batches", compound_batches)
    return calls


def test_temp_create_keeps_the_kept_batches(beffio_campaign, batch_builds,
                                            column_joins):
    """stddev's first run creates its temp table; the fig8 run after it
    still plans, batches and joins nothing."""
    exp, _ = beffio("memory", beffio_campaign)
    fig8 = parse_query_xml(fig8_query_xml())
    fig8.execute(exp, pushdown=True)
    tracer = Tracer(InMemorySink())
    with use_tracer(tracer):
        parse_query_xml(stddev_query_xml()).execute(exp, pushdown=True)
    assert tracer.metrics.counter("temptables.created").value >= 1
    del batch_builds[:], column_joins[:]
    _, _, plans = counted(fig8, exp)
    assert batch_builds == []
    assert plans == 0
    assert column_joins == []


def kept_slots(db) -> int:
    """The list slots of every batch table ``db`` keeps: rowids and
    joined columns, each batch table counted once."""
    tables = {id(table): table for kept in db._compounds.values()
              for _plan, _spans, tables, _unions, counts in kept.batches
              if counts is not None for table in tables}
    return sum(len(table.rowids) + sum(map(len, table.cols.values()))
               for table in tables.values())


def test_fused_and_unfused_runs_share_batch_tables(beffio_campaign):
    """A source run element-wise batches the tables its fused run
    batched: the two statements keep one copy of their rows."""
    exp, _ = beffio("memory", beffio_campaign)
    db = exp.store.db
    queries = [parse_query_xml(x)
               for x in (fig8_query_xml(), stddev_query_xml())]
    for query in queries:
        query.execute(exp, pushdown=True)
    fused = kept_slots(db)
    compounds = len(db._compounds)
    for query in queries:
        query.execute(exp, pushdown=False)
    assert len(db._compounds) == 2 * compounds
    assert fused > 0
    assert kept_slots(db) == fused
