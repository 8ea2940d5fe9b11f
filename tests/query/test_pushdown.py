"""SQL pushdown battery: plan shapes, fused-vs-unfused byte identity,
fallback paths, counters and cache interplay."""

import pytest

from repro import Experiment
from repro.core import QueryError, RunData
from repro.obs import InMemorySink, Tracer, use_tracer
from repro.parse import Importer
from repro.query import (Combiner, Operator, Output, ParameterSpec,
                         Query, Source)
from repro.query.source import MAX_COMPOUND_OPERANDS
from repro.testing import assert_identical, make_server, query_outcome
from repro.workloads.beffio_assets import (experiment_xml, fig8_query_xml,
                                           input_xml, stddev_query_xml)
from repro.xmlio import (parse_experiment_xml, parse_input_xml,
                         parse_query_xml)
from tests.conftest import fill_simple, make_simple_experiment
from tests.parallel.test_cache_plan import beffio

pytestmark = pytest.mark.pushdown


def _source(name="s", technique=None):
    specs = [ParameterSpec("S_chunk"), ParameterSpec("access")]
    if technique is not None:
        specs.insert(0, ParameterSpec("technique", technique,
                                      show=False))
    return Source(name, parameters=specs, results=["bw"])


def linear_chain():
    """source -> avg -> scale -> norm: one fusable 3-element chain."""
    return Query([
        _source(),
        Operator("mean", "avg", ["s"]),
        Operator("scaled", "scale", ["mean"], factor=2.0),
        Operator("normed", "norm", ["scaled"], mode="max"),
        Output("csv", ["normed"], format="csv"),
    ], name="chain")


def fanout_query():
    """avg feeds two consumers: only the diamond's arms fuse."""
    return Query([
        _source(),
        Operator("mean", "avg", ["s"]),
        Operator("hi", "scale", ["mean"], factor=2.0),
        Operator("lo", "scale", ["mean"], factor=0.5),
        Combiner("both", ["hi", "lo"]),
        Output("csv", ["both"], format="csv"),
    ], name="fanout")


def sibling_aggregates(first="avg", second="stddev", *, use_sql=True,
                       keep_duplicate_parameters=False):
    """One source feeds two data-set aggregates that one combiner
    joins — the diamond that fuses into a single GROUP BY."""
    return Query([
        _source(),
        Operator("mean", first, ["s"]),
        Operator("spread", second, ["s"], use_sql=use_sql),
        Combiner("both", ["mean", "spread"],
                 keep_duplicate_parameters=keep_duplicate_parameters),
        Output("csv", ["both"], format="csv"),
    ], name="siblings")


def eval_in_chain():
    """A Python element splits the chain around itself."""
    return Query([
        _source(),
        Operator("mean", "avg", ["s"]),
        Operator("e", "eval", ["mean"], expression="bw * 2"),
        Operator("scaled", "scale", ["e"], factor=3.0),
        Operator("normed", "norm", ["scaled"], mode="min"),
        Output("csv", ["normed"], format="csv"),
    ], name="eval_chain")


def join_then_order_sensitive(op_kwargs):
    """Two reduced branches combined, then an order-sensitive operator
    on top of the (re-ordered) join — the runtime fallback path."""
    return Query([
        _source("so", technique="old"),
        Operator("ao", "avg", ["so"]),
        _source("sn", technique="new"),
        Operator("an", "avg", ["sn"]),
        Combiner("both", ["ao", "an"]),
        Operator(**op_kwargs),
        Output("csv", ["top"], format="csv"),
    ], name="join_order")


def assert_fused_identical(experiment, factory, parallel=0):
    """Fused and unfused runs must agree vector-by-vector and on every
    artifact (absorbed interior vectors are simply absent fused)."""
    unfused = query_outcome(experiment, factory(), parallel=parallel)
    fused = query_outcome(experiment, factory(), parallel=parallel,
                          pushdown=True)
    assert_identical(unfused["artifacts"], fused["artifacts"],
                     "artifacts")
    assert fused["vectors"], "fused run produced no vectors"
    for name, snapshot in fused["vectors"].items():
        assert_identical(unfused["vectors"][name], snapshot,
                         f"vector[{name!r}]")
    return fused


def traced_fused(experiment, factory):
    """The tracer of one fused run."""
    tracer = Tracer(InMemorySink())
    with use_tracer(tracer):
        query_outcome(experiment, factory(), pushdown=True)
    return tracer


class TestPlanShapes:
    def test_linear_chain_fuses_to_tail(self):
        plan = linear_chain().pushdown_plan()
        assert plan.groups == {
            "normed": ("s", "mean", "scaled", "normed")}
        assert plan.statements_saved == 3
        assert plan.fused_elements == 4
        assert plan.absorbed("s") and plan.absorbed("mean")
        assert plan.absorbed("scaled")
        assert not plan.absorbed("normed")
        assert plan.label("normed") == "FUSED[s→mean→scaled→normed]"

    def test_outputs_never_fuse(self):
        plan = linear_chain().pushdown_plan()
        assert "csv" not in plan.member_of

    def test_fanout_forces_materialisation(self):
        plan = fanout_query().pushdown_plan()
        # mean feeds hi AND lo, so it must materialise; the source
        # fuses into it, and the two arms fuse into the combiner
        assert plan.groups == {"mean": ("s", "mean"),
                               "both": ("hi", "lo", "both")}

    def test_sibling_aggregates_fuse_the_fanout(self):
        plan = sibling_aggregates().pushdown_plan()
        assert plan.groups == {"both": ("s", "mean", "spread", "both")}
        assert plan.label("both") == "FUSED[s→mean→spread→both]"
        assert plan.statements_saved == 3
        assert all(plan.absorbed(n) for n in ("s", "mean", "spread"))

    def test_python_sibling_keeps_the_source_materialised(self):
        plan = sibling_aggregates(use_sql=False).pushdown_plan()
        assert plan.groups == {"both": ("mean", "both")}

    def test_siblings_under_a_cache_fuse_nothing(self):
        plan = sibling_aggregates().pushdown_plan(cache_active=True)
        assert plan.groups == {}

    def test_aggregates_feeding_different_combiners_do_not_merge(self):
        query = Query([
            _source(),
            Operator("mean", "avg", ["s"]),
            Operator("spread", "stddev", ["s"]),
            _source("t"),
            Operator("top", "max", ["t"]),
            Combiner("c1", ["mean", "top"]),
            Combiner("c2", ["spread", "top"]),
            Output("csv1", ["c1"], format="csv"),
            Output("csv2", ["c2"], format="csv"),
        ], name="two_combiners")
        assert query.pushdown_plan().groups == {
            "top": ("t", "top"), "c1": ("mean", "c1"),
            "c2": ("spread", "c2")}

    def test_python_element_splits_the_chain(self):
        plan = eval_in_chain().pushdown_plan()
        assert "e" not in plan.member_of
        assert plan.groups == {"mean": ("s", "mean"),
                               "normed": ("scaled", "normed")}

    def test_cache_boundaries_fuse_nothing(self):
        plan = linear_chain().pushdown_plan(cache_active=True)
        assert plan.groups == {}
        assert plan.member_of == {}


class TestFusedIdentity:
    def test_linear_chain(self, filled_experiment):
        fused = assert_fused_identical(filled_experiment, linear_chain)
        # absorbed members (the source included) never materialised
        assert set(fused["vectors"]) == {"normed"}

    def test_fanout(self, filled_experiment):
        assert_fused_identical(filled_experiment, fanout_query)

    @pytest.mark.parametrize("first,second", [
        ("avg", "stddev"), ("count", "max"), ("median", "variance"),
        ("sum", "prod"), ("min", "avg")])
    def test_sibling_aggregates(self, filled_experiment, first, second):
        factory = lambda: sibling_aggregates(first, second)
        fused = assert_fused_identical(filled_experiment, factory)
        assert set(fused["vectors"]) == {"both"}
        tracer = traced_fused(filled_experiment, factory)
        assert tracer.metrics.counter("pushdown.fallbacks").value == 0
        # the source's fragment is built once: one INSERT reads it
        inserts = [s for s in tracer.spans if s.kind == "db"
                   and s.attributes["sql"].startswith("INSERT")]
        assert len(inserts) == 1
        assert " JOIN " not in inserts[0].attributes["sql"]

    def test_sibling_aggregates_keep_duplicate_parameters(
            self, filled_experiment):
        fused = assert_fused_identical(
            filled_experiment, lambda: sibling_aggregates(
                keep_duplicate_parameters=True))
        assert [c[0] for c in fused["vectors"]["both"]["columns"]] \
            == ["S_chunk", "access", "S_chunk_spread", "access_spread",
                "bw", "bw_spread"]

    def test_sibling_aggregates_drop_null_keys(self, filled_experiment):
        # data sets without an access value group under a NULL key;
        # the unfused combiner's join never matches it
        filled_experiment.store_run(RunData(
            once={"technique": "old", "fs": "ufs"},
            datasets=[{"S_chunk": 32, "bw": 1.0},
                      {"S_chunk": 32, "bw": 3.0},
                      {"access": "read", "bw": 5.0}]))
        unfused = query_outcome(filled_experiment, sibling_aggregates())
        mean = unfused["vectors"]["mean"]["rows"]
        assert any(None in row[:2] for row in mean)
        fused = assert_fused_identical(filled_experiment,
                                       sibling_aggregates)
        assert not any(None in row[:2]
                       for row in fused["vectors"]["both"]["rows"])

    @pytest.mark.parametrize("backend", ["sqlite", "memory"])
    def test_sibling_aggregates_past_compound_limit(self, backend):
        """Past 500 runs the source cannot fuse: it materialises, and
        the aggregates and combiner still run as one group."""
        exp = make_simple_experiment(make_server(backend))
        with exp.store.batch() as batch:
            for i in range(MAX_COMPOUND_OPERANDS + 1):
                batch.store_run(RunData(
                    once={"technique": "old", "fs": "ufs"},
                    datasets=[{"S_chunk": 32 << (i % 3),
                               "access": "read", "bw": float(i)}]))
        fused = assert_fused_identical(exp, sibling_aggregates)
        assert set(fused["vectors"]) == {"s", "both"}
        tracer = traced_fused(exp, sibling_aggregates)
        assert tracer.metrics.counter("pushdown.fallbacks").value == 1
        tails = [s for s in tracer.spans if s.name == "both"]
        assert [s.attributes.get("fused") for s in tails] \
            == ["mean,spread,both"]

    def test_sibling_aggregates_parallel(self, filled_experiment):
        serial = assert_fused_identical(filled_experiment,
                                        sibling_aggregates)
        parallel = assert_fused_identical(filled_experiment,
                                          sibling_aggregates, parallel=3)
        assert_identical(serial, parallel, "serial vs parallel")

    def test_eval_chain(self, filled_experiment):
        assert_fused_identical(filled_experiment, eval_in_chain)

    def test_parallel_matches_serial(self, filled_experiment):
        fused = assert_fused_identical(filled_experiment, linear_chain,
                                       parallel=3)
        serial = assert_fused_identical(filled_experiment, linear_chain)
        assert_identical(serial, fused, "serial vs parallel")

    def test_cached_run_ignores_pushdown(self, filled_experiment):
        plain = query_outcome(filled_experiment, linear_chain(),
                              cache=True)
        pushed = query_outcome(filled_experiment, linear_chain(),
                               cache=True, pushdown=True)
        assert_identical(plain, pushed, "cache on")


class TestFallbacks:
    def test_aggregate_over_join_falls_back(self, filled_experiment):
        op_kwargs = {"name": "top", "op": "avg", "inputs": ["both"]}
        factory = lambda: join_then_order_sensitive(op_kwargs)
        # the planner happily fuses the whole diamond ...
        assert "top" in factory().pushdown_plan().groups
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            fused = assert_fused_identical(filled_experiment, factory)
        # ... but the fragment builder refuses and the group re-runs
        # element-wise, so every member vector exists after all
        assert {"ao", "an", "both", "top"} <= set(fused["vectors"])
        assert tracer.metrics.counter("pushdown.fallbacks").value >= 1

    def test_sum_norm_over_join_pins_a_seam(self, filled_experiment):
        # norm rescans its input (denominator probe + final INSERT),
        # so over a join fragment it materialises one seam table and
        # keeps the group fused instead of falling back element-wise
        op_kwargs = {"name": "top", "op": "norm", "inputs": ["both"],
                     "mode": "sum"}
        factory = lambda: join_then_order_sensitive(op_kwargs)
        assert "top" in factory().pushdown_plan().groups
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            fused = assert_fused_identical(filled_experiment, factory)
        # absorbed interiors stayed absorbed: only the tail remains
        assert set(fused["vectors"]) == {"top"}
        assert tracer.metrics.counter("pushdown.fallbacks").value == 0
        assert tracer.metrics.counter("pushdown.seams").value >= 1

    def test_zero_denominator_raises_either_way(self, server):
        exp = fill_simple(make_simple_experiment(server),
                          value=lambda *a: 0.0)
        query = Query([
            _source(),
            Operator("mean", "avg", ["s"]),
            Operator("normed", "norm", ["mean"], mode="max"),
            Output("csv", ["normed"], format="csv"),
        ], name="zeros")
        for pushdown in (False, True):
            with pytest.raises(QueryError,
                               match=r"'normed'.*'bw'.*denominator"):
                query.execute(exp, pushdown=pushdown)


class TestObservability:
    def test_counters_and_span_attribute(self, filled_experiment):
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            query_outcome(filled_experiment, linear_chain(),
                          pushdown=True)
        metrics = tracer.metrics
        assert metrics.counter("pushdown.groups").value == 1
        assert metrics.counter("pushdown.fused_elements").value == 4
        assert metrics.counter("pushdown.statements_saved").value == 3
        tails = [s for s in tracer.spans if s.name == "normed"]
        assert tails, "no span recorded for the fused tail"
        assert tails[0].attributes["fused"] == "s,mean,scaled,normed"
        # the span's rows is the INSERT's rowcount, not a COUNT(*)
        assert tails[0].attributes["rows"] == 6
        assert not [s for s in tracer.spans if s.kind == "db"
                    and s.attributes["sql"].startswith("SELECT COUNT")]
        # absorbed members never ran as elements of their own
        assert not [s for s in tracer.spans
                    if s.name in ("s", "scaled")]


#: db.statements of one traced fig8 and one traced stddev query over
#: the 6-run ``beffio_campaign``, per backend (the columnar engine
#: counts fewer because its catalogue probes are not statements, where
#: SQLite checks each per-data-set source's run tables with one
#: catalogue statement).  Unfused, every element is a group of one and
#: runs what the Section 4.2 protocol does — one CREATE and one INSERT
#: (a source: one per ``MAX_COMPOUND_OPERANDS`` runs), plus norm's
#: probe per column — so these numbers must not move when
#: emitters are refactored.  Every vector knows its row count, so the
#: tracer adds no statement; fused, stddev's sibling aggregates make
#: the whole query one group.
EXACT_STATEMENTS = {
    "sqlite": {"unfused": (22, 15), "fused": (10, 6)},
    "memory": {"unfused": (20, 14), "fused": (8, 5)},
}


@pytest.mark.parametrize("backend", sorted(EXACT_STATEMENTS))
def test_exact_statement_counts(backend, beffio_campaign):
    definition = parse_experiment_xml(experiment_xml())
    exp = Experiment.create(make_server(backend), definition.name,
                            list(definition.variables), definition.info)
    importer = Importer(exp, parse_input_xml(input_xml()))
    for fname, content in beffio_campaign:
        importer.import_text(content, fname)
    counts = {}
    for label, pushdown in (("unfused", False), ("fused", True)):
        per_query = []
        for xml in (fig8_query_xml(), stddev_query_xml()):
            tracer = Tracer(InMemorySink())
            with use_tracer(tracer):
                parse_query_xml(xml).execute(exp, pushdown=pushdown)
            per_query.append(
                int(tracer.metrics.counter("db.statements").value))
        counts[label] = tuple(per_query)
    assert counts == EXACT_STATEMENTS[backend]


def test_statements_do_not_grow_with_run_count(beffio_campaign):
    """A source checks all its matching runs' tables with one catalogue
    statement and unions them into one INSERT: fig8 issues as many
    statements over 6 runs as over 5, fused, and per source, unfused."""
    exp, importer = beffio("sqlite", beffio_campaign[:5])

    def statements(pushdown):
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            parse_query_xml(fig8_query_xml()).execute(
                exp, pushdown=pushdown)
        sources = {s.span_id: s.name for s in tracer.element_spans()
                   if s.kind == "source"}
        per_source = dict.fromkeys(sources.values(), 0)
        for span in tracer.spans:
            if span.kind == "db" and span.parent_id in sources:
                per_source[sources[span.parent_id]] += 1
        return (int(tracer.metrics.counter("db.statements").value),
                per_source)

    # both measured runs start warm: a query's first run on a handle
    # creates its temp tables, later runs lease them from the pool
    statements(True)
    statements(False)
    fused_before, _ = statements(True)
    _, unfused_before = statements(False)
    fname, content = beffio_campaign[5]
    importer.import_text(content, fname)
    fused_after, _ = statements(True)
    _, unfused_after = statements(False)

    assert fused_after == fused_before
    # fig8's src_new keeps the listless runs, src_old the listbased
    # ones: the added run matches one of them
    assert ("_listless_" in fname) != ("_listbased_" in fname)
    assert set(unfused_before) == {"src_new", "src_old"}
    assert unfused_after == unfused_before


@pytest.mark.parametrize("backend", ["sqlite", "memory"])
def test_fused_stddev_statements_do_not_grow_with_run_count(
        backend, beffio_campaign):
    """Fused, stddev_check is one group: one more matching run adds an
    operand to its UNION ALL, not a statement."""
    exp, importer = beffio(backend, beffio_campaign[:5])

    def statements():
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            parse_query_xml(stddev_query_xml()).execute(exp, pushdown=True)
        return (int(tracer.metrics.counter("db.statements").value),
                [s.attributes["rows"] for s in tracer.element_spans()
                 if s.name == "both"])

    statements()  # warm the handle's temp-table pool
    before = statements()
    fname, content = beffio_campaign[5]
    assert "_listless_ufs_" in fname  # matches stddev_check's source
    importer.import_text(content, fname)
    assert statements() == before
