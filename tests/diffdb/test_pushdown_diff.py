"""Differential pushdown battery: fused execution must be
byte-identical to the temp-table protocol on every backend, and the
fused outcomes themselves must agree across backends — serial and
parallel."""

import pytest

from repro.core import RunData
from repro.obs import InMemorySink, Tracer, use_tracer
from repro.query.source import MAX_COMPOUND_OPERANDS
from repro.testing import assert_identical, query_outcome, run_differential
from tests.conftest import make_simple_experiment
from tests.diffdb.conftest import QUERY_BATTERY, build_filled

pytestmark = [pytest.mark.diffdb, pytest.mark.pushdown]


def _assert_fused_matches(unfused, fused, context):
    """Name-by-name: a fused snapshot omits absorbed interior vectors,
    so its key set is a subset of the unfused one."""
    assert_identical(unfused["artifacts"], fused["artifacts"],
                     f"{context}: artifacts")
    missing = set(fused["vectors"]) - set(unfused["vectors"])
    assert not missing, f"{context}: unexpected vectors {missing}"
    for name, snapshot in fused["vectors"].items():
        assert_identical(unfused["vectors"][name], snapshot,
                         f"{context}: vector[{name!r}]")


@pytest.mark.parametrize("battery", sorted(QUERY_BATTERY))
def test_fused_equals_unfused_serial(battery):
    def scenario(server, backend):
        exp = build_filled(server)
        unfused = query_outcome(exp, QUERY_BATTERY[battery]())
        fused = query_outcome(exp, QUERY_BATTERY[battery](),
                              pushdown=True)
        _assert_fused_matches(unfused, fused, backend)
        return fused
    run_differential(scenario)


@pytest.mark.parametrize("battery", sorted(QUERY_BATTERY))
def test_fused_equals_unfused_parallel(battery):
    def scenario(server, backend):
        exp = build_filled(server)
        unfused = query_outcome(exp, QUERY_BATTERY[battery](),
                                parallel=3)
        fused = query_outcome(exp, QUERY_BATTERY[battery](),
                              parallel=3, pushdown=True)
        _assert_fused_matches(unfused, fused, backend)
        return fused
    run_differential(scenario)


def _tiny_runs(exp, count, start=0):
    with exp.store.batch() as batch:
        for i in range(start, start + count):
            batch.store_run(RunData(
                once={"technique": "old", "fs": "ufs"},
                datasets=[{"S_chunk": 32 << (i % 3), "access": "read",
                           "bw": float(i)}]))


def _fallbacks(exp, parallel):
    """Fused vs unfused outcome plus the fallbacks the fused run took."""
    unfused = query_outcome(exp, QUERY_BATTERY["avg"](),
                            parallel=parallel)
    tracer = Tracer(InMemorySink())
    with use_tracer(tracer):
        fused = query_outcome(exp, QUERY_BATTERY["avg"](),
                              parallel=parallel, pushdown=True)
    _assert_fused_matches(unfused, fused, f"parallel={parallel}")
    return fused, tracer.metrics.counter("pushdown.fallbacks").value


@pytest.mark.parametrize("parallel", [0, 3], ids=["serial", "parallel"])
def test_source_past_compound_select_limit_falls_back(parallel):
    """SQLite refuses a compound SELECT of more than 500 operands, and
    a fused source unions one operand per run: at 501 runs the source
    must fall back to its per-run statements on every backend instead
    of failing with 'too many terms in compound SELECT'."""
    def scenario(server, backend):
        exp = make_simple_experiment(server)
        # cluster nodes fetch through Python from an unattachable
        # experiment database, so there every fused source falls back
        unattachable = bool(parallel) and exp.store.db.attachable_uri is None
        _tiny_runs(exp, MAX_COMPOUND_OPERANDS)
        at_limit, fallbacks = _fallbacks(exp, parallel)
        assert fallbacks == int(unattachable), \
            f"{backend}: 500 operands must fuse"
        _tiny_runs(exp, 1, start=MAX_COMPOUND_OPERANDS)
        past_limit, fallbacks = _fallbacks(exp, parallel)
        assert fallbacks == 1, f"{backend}: 501 operands must fall back"
        return {"at_limit": at_limit, "past_limit": past_limit}
    run_differential(scenario)
