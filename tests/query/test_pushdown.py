"""SQL pushdown battery: plan shapes, fused-vs-unfused byte identity,
fallback paths, counters and cache interplay."""

import pytest

from repro import Experiment
from repro.core import QueryError
from repro.obs import InMemorySink, Tracer, use_tracer
from repro.parse import Importer
from repro.query import (Combiner, Operator, Output, ParameterSpec,
                         Query, Source)
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
        # absorbed members never ran as elements of their own
        assert not [s for s in tracer.spans
                    if s.name in ("s", "scaled")]


#: db.statements of one fig8 and one stddev query over the 6-run
#: ``beffio_campaign``, per backend (the columnar engine counts fewer
#: because its catalogue probes are not statements, where SQLite checks
#: each per-data-set source's run tables with one catalogue statement).
#: Unfused, every element is a group of one and runs what the Section
#: 4.2 protocol does — one CREATE and one INSERT, plus norm's probe per
#: column — so these numbers must not move when emitters are refactored.
EXACT_STATEMENTS = {
    "sqlite": {"unfused": (36, 25), "fused": (12, 15)},
    "memory": {"unfused": (29, 20), "fused": (9, 12)},
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
    statement: fused fig8 issues as many statements over 6 runs as over
    5, and unfused each per-data-set source adds exactly its INSERT per
    added matching run."""
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

    fused_before, _ = statements(True)
    _, unfused_before = statements(False)
    fname, content = beffio_campaign[5]
    importer.import_text(content, fname)
    fused_after, _ = statements(True)
    _, unfused_after = statements(False)

    assert fused_after == fused_before
    # fig8's src_new keeps the listless runs, src_old the listbased ones
    added = {"src_new": int("_listless_" in fname),
             "src_old": int("_listbased_" in fname)}
    assert sum(added.values()) == 1
    assert {name: unfused_after[name] - unfused_before[name]
            for name in unfused_before} == added
