"""One SQL emitter per source.

Element-wise execution, a fused group that falls back, a cache store
and a 2-node run all read a source through the same ``UNION ALL``
fragments of at most ``MAX_COMPOUND_OPERANDS`` runs each, and all of
them write the same rows in the same order.  The limit is lowered to
2 on the 6-run ``beffio_campaign``, so a source over every run spans
three fragments.
"""

from __future__ import annotations

import math

import pytest

from repro.obs import InMemorySink, Tracer, use_tracer
from repro.query import Operator, Output, ParameterSpec, Query, Source
from repro.query import source as source_module
from repro.testing import query_outcome

from .test_qcache_extend import beffio

pytestmark = pytest.mark.pushdown

BACKENDS = ["sqlite", "memory"]
LIMIT = 2

#: ``per_dataset()``'s source over the 6 runs: runs 1-3 are listbased,
#: 4-6 listless, each with the read data sets at positions 1 and 2
PER_DATASET = [
    (1, "listbased", 1, 1.069), (1, "listbased", 2, 27.708),
    (2, "listbased", 1, 1.022), (2, "listbased", 2, 29.627),
    (3, "listbased", 1, 1.027), (3, "listbased", 2, 30.416),
    (4, "listless", 1, 1.18), (4, "listless", 2, 31.811),
    (5, "listless", 1, 1.141), (5, "listless", 2, 33.047),
    (6, "listless", 1, 1.153), (6, "listless", 2, 33.101),
]

#: ``run_level()``'s source: one row per run off the once table
RUN_LEVEL = [
    (1, "listbased", 233.856), (2, "listbased", 232.381),
    (3, "listbased", 234.528), (4, "listless", 180.975),
    (5, "listless", 181.34), (6, "listless", 181.901),
]


def per_dataset() -> Query:
    return Query([
        Source("s", parameters=[ParameterSpec("technique"),
                                ParameterSpec("pos", 2, op="<="),
                                ParameterSpec("access", "read",
                                              show=False)],
               results=["B_scatter"], include_run_index=True),
        Operator("m", "max", ["s"]),
        Output("table", ["m"], format="ascii"),
    ], name="per_dataset")


def run_level() -> Query:
    return Query([
        Source("s", parameters=[ParameterSpec("technique")],
               results=["b_eff_io"], include_run_index=True),
        Operator("m", "max", ["s"]),
        Output("table", ["m"], format="ascii"),
    ], name="run_level")


@pytest.fixture
def emitted(monkeypatch):
    """The operand count of each fragment the source emitter returns,
    one list per call, under the lowered limit."""
    monkeypatch.setattr(source_module, "MAX_COMPOUND_OPERANDS", LIMIT)
    calls = []
    original = source_module.Source._fragments

    def fragments(self, *args, **kwargs):
        built = original(self, *args, **kwargs)
        calls.append([f.sql.count(" UNION ALL ") + 1 for f in built])
        return built

    monkeypatch.setattr(source_module.Source, "_fragments", fragments)
    return calls


def traced(exp, query, **kwargs):
    tracer = Tracer(InMemorySink())
    with use_tracer(tracer):
        outcome = query_outcome(exp, query, **kwargs)
    return outcome, tracer


def source_statements(tracer, prefix):
    """The statements of the source element's own span(s) whose SQL
    starts with ``prefix``."""
    spans = {s.span_id for s in tracer.element_spans() if s.name == "s"}
    assert spans, "the source did not run element-wise"
    return [s.attributes["sql"] for s in tracer.spans
            if s.kind == "db" and s.parent_id in spans
            and s.attributes["sql"].startswith(prefix)]


@pytest.mark.parametrize("backend", BACKENDS)
def test_element_wise_source_inserts_per_fragment(backend, beffio_campaign,
                                                  emitted):
    exp, _ = beffio(backend, beffio_campaign)
    outcome, tracer = traced(exp, per_dataset())
    assert outcome["vectors"]["s"]["rows"] == PER_DATASET
    assert emitted == [[LIMIT] * 3]
    assert len(source_statements(tracer, "INSERT")) == math.ceil(6 / LIMIT)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fused_group_falls_back_to_the_same_rows(backend, beffio_campaign,
                                                 emitted):
    """Three fragments do not fit one fused statement: the group runs
    element-wise, and the source writes what it writes unfused."""
    exp, _ = beffio(backend, beffio_campaign)
    outcome, tracer = traced(exp, per_dataset(), pushdown=True)
    assert tracer.metrics.counter("pushdown.fallbacks").value == 1
    assert outcome["vectors"]["s"]["rows"] == PER_DATASET
    assert emitted == [[LIMIT] * 3] * 2  # fuse, then run
    assert len(source_statements(tracer, "INSERT")) == 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_cache_store_appends_the_same_fragments(backend, beffio_campaign,
                                                emitted):
    exp, _ = beffio(backend, beffio_campaign)
    outcome, tracer = traced(exp, per_dataset(), cache=exp.query_cache())
    assert outcome["vectors"]["s"]["rows"] == PER_DATASET
    assert emitted == [[LIMIT] * 3]
    stores = [s for s in tracer.spans if s.kind == "db"
              and s.attributes["sql"].startswith('INSERT INTO "pbc_')
              and " SELECT s." in s.attributes["sql"]]
    assert len(stores) == 3


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", ["element-wise", "fused", "cached"])
def test_run_level_only_source_is_one_statement(backend, mode,
                                                beffio_campaign, emitted):
    """A source without per-data-set values reads the once table in one
    select, however many runs match."""
    exp, _ = beffio(backend, beffio_campaign)
    kwargs = {"fused": {"pushdown": True},
              "cached": {"cache": exp.query_cache()}}.get(mode, {})
    outcome, tracer = traced(exp, run_level(), **kwargs)
    assert outcome["vectors"]["m"]["rows"] == RUN_LEVEL
    if mode != "fused":  # fused, the source is absorbed
        assert outcome["vectors"]["s"]["rows"] == RUN_LEVEL
    assert tracer.metrics.counter("pushdown.fallbacks").value == 0
    assert emitted == [[1]]
    if mode == "element-wise":
        assert len(source_statements(tracer, "INSERT")) == 1


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("pushdown", [False, True],
                         ids=["unfused", "fused"])
def test_run_without_data_table_is_skipped(backend, pushdown,
                                           beffio_campaign, emitted):
    exp, _ = beffio(backend, beffio_campaign)
    exp.store.db.execute(f'DROP TABLE "{exp.store.run_table(2)}"')
    exp.store.db.commit()
    outcome, tracer = traced(exp, per_dataset(), pushdown=pushdown)
    assert outcome["vectors"]["s"]["rows"] == [
        row for row in PER_DATASET if row[0] != 2]
    assert emitted[-1] == [2, 2, 1]
    assert len(source_statements(tracer, "INSERT")) == 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_nodes_read_the_same_fragments(backend, beffio_campaign,
                                           emitted):
    """Cluster nodes of the columnar engine cannot attach the
    experiment database: a source there fetches each fragment from it
    and inserts the rows on its node."""
    exp, _ = beffio(backend, beffio_campaign)
    outcome, tracer = traced(exp, per_dataset(), parallel=2)
    assert outcome["vectors"]["s"]["rows"] == PER_DATASET
    assert emitted == [[LIMIT] * 3]
    fetched = source_statements(tracer, "SELECT s.")
    assert len(fetched) == (3 if backend == "memory" else 0)
    assert len(source_statements(tracer, "INSERT")) == 3
