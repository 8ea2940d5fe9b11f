"""Differential battery over damaged data, before any repair: a query
skips an active run whose data table was dropped behind perfbase's back
(fsck's ``run-no-data`` class) and a run whose table lost a requested
column, identically on every backend, fused and unfused, serial and
parallel.  The warm case runs the query before the damage too, so
nothing remembered about the run tables may outlive the DROP/ALTER."""

import pytest

from repro.query import Operator, Output, ParameterSpec, Query, Source
from repro.testing import query_outcome, run_differential
from tests.diffdb.conftest import QUERY_BATTERY, build_filled
from tests.diffdb.test_pushdown_diff import _assert_fused_matches

pytestmark = [pytest.mark.diffdb, pytest.mark.pushdown]

#: build_filled stores three "old" runs (1-3), then three "new" (4-6)
DROPPED_TABLE, DROPPED_COLUMN = 2, 5


def _damage(exp):
    db = exp.store.db
    db.execute(f'DROP TABLE "rundata_{DROPPED_TABLE}"')
    db.execute(f'ALTER TABLE "rundata_{DROPPED_COLUMN}" DROP COLUMN "bw"')
    db.commit()


def _per_run():
    """Every data set with its run index: shows which runs survived."""
    return Query([
        Source("s", parameters=[ParameterSpec("S_chunk"),
                                ParameterSpec("access")],
               results=["bw"], include_run_index=True),
        Operator("m", "avg", ["s"]),
        Output("csv", ["s"], format="csv"),
        Output("table", ["m"], format="ascii"),
    ], name="damaged_per_run")


QUERIES = {"per_run": _per_run, "two_branch": QUERY_BATTERY["above"]}


@pytest.mark.parametrize("parallel", [0, 3], ids=["serial", "parallel"])
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_damaged_runs_are_skipped(query, parallel):
    def scenario(server, backend):
        exp = build_filled(server)
        _damage(exp)
        unfused = query_outcome(exp, QUERIES[query](), parallel=parallel)
        fused = query_outcome(exp, QUERIES[query](), parallel=parallel,
                              pushdown=True)
        _assert_fused_matches(unfused, fused, backend)
        if query == "per_run":
            runs = {row[0] for row in unfused["vectors"]["s"]["rows"]}
            assert sorted(runs) == [1, 3, 4, 6], backend
        return fused
    run_differential(scenario)


@pytest.mark.parametrize("parallel", [0, 3], ids=["serial", "parallel"])
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_damage_after_a_warm_query(query, parallel):
    def scenario(server, backend):
        exp = build_filled(server)
        for pushdown in (False, True):
            query_outcome(exp, QUERIES[query](), parallel=parallel,
                          pushdown=pushdown)
        _damage(exp)
        unfused = query_outcome(exp, QUERIES[query](), parallel=parallel)
        fused = query_outcome(exp, QUERIES[query](), parallel=parallel,
                              pushdown=True)
        _assert_fused_matches(unfused, fused, backend)
        if query == "per_run":
            runs = {row[0] for row in unfused["vectors"]["s"]["rows"]}
            assert sorted(runs) == [1, 3, 4, 6], backend
        return fused
    run_differential(scenario)
