"""Cache on vs cache off after every kind of mutation.

The cache keys a source by its spec, the schema counter and the runs it
matches.  Whatever changed since the cache was filled — an import that
matches one source, a deleted run, a variable change, an fsck repair —
a cached re-run (serial and 2-node parallel, misses fused) must be
byte-identical to an uncached run, on every backend."""

import pytest

from repro.core import DataType, Occurrence, Result, Unit
from repro.db import fsck
from repro.testing import assert_identical, query_outcome, run_differential
from tests.conftest import fill_simple
from tests.diffdb.conftest import QUERY_BATTERY, build_filled

pytestmark = [pytest.mark.diffdb, pytest.mark.qcache]

QUERIES = ("diff", "combine", "source_filters", "convert")
EXECUTORS = (0, 2)  # serial, 2-node parallel


def _repair_damaged_run(exp):
    """Drop a run's data table behind perfbase's back, then repair."""
    index = exp.run_indices()[-1]
    exp.store.db.drop_table(exp.store.run_table(index))
    exp.store.db.commit()
    # (query_outcome keeps temp tables, which fsck drops as leaks)
    assert fsck(exp.store).by_category()["run-no-data"] == 1


MUTATIONS = {
    # fills technique "new" only: of a two-branch query, one source
    "import_one_source": lambda exp: fill_simple(
        exp, techniques=("new",), reps=1),
    "delete_run": lambda exp: exp.delete_run(exp.run_indices()[0]),
    "add_variable": lambda exp: exp.add_variable(Result(
        "latency", datatype=DataType.FLOAT,
        occurrence=Occurrence.MULTIPLE)),
    "modify_variable": lambda exp: exp.modify_variable(Result(
        "bw", datatype=DataType.FLOAT, occurrence=Occurrence.MULTIPLE,
        unit=Unit.parse("GB/s"), synopsis="bandwidth (rescaled)")),
    "remove_variable": lambda exp: exp.remove_variable("fs"),
    "fsck_repair": _repair_damaged_run,
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_cached_rerun_after_mutation_is_uncached_result(mutation):
    def scenario(server, backend):
        exp = build_filled(server)
        for name in QUERIES:
            for parallel in EXECUTORS:
                query_outcome(exp, QUERY_BATTERY[name](), cache=True,
                              parallel=parallel, pushdown=True)
        MUTATIONS[mutation](exp)
        outcomes = {}
        for name in QUERIES:
            uncached = query_outcome(exp, QUERY_BATTERY[name]())
            for parallel in EXECUTORS:
                cached = query_outcome(exp, QUERY_BATTERY[name](),
                                       cache=True, parallel=parallel,
                                       pushdown=True)
                assert_identical(uncached, cached,
                                 f"{backend} {name} parallel={parallel}")
            outcomes[name] = uncached
        return outcomes
    run_differential(scenario)
