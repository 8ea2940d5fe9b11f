"""Fault injection: retry/backoff and rollback behaviour must be
observably identical on both backends — transient lock faults are
retried through, crashes roll partial batches back completely."""

import pytest

from repro.core import (DataType, Occurrence, Parameter, Result,
                        RunData)
from repro.faults import (CrashFault, FaultPlan, InjectedIOError,
                          use_faults)
from repro.testing import query_outcome, run_differential, snapshot_store
from tests.conftest import fill_simple, make_simple_experiment
from tests.diffdb.conftest import QUERY_BATTERY, build_filled

pytestmark = [pytest.mark.diffdb, pytest.mark.faults]


def test_transient_lock_on_commit_retried_identically():
    """BatchContext retries transient commit locks; the stored state
    afterwards must not depend on the backend."""
    def scenario(server, backend):
        exp = make_simple_experiment(server)
        plan = FaultPlan()
        plan.add("lock", "db.commit", times=1)
        with use_faults(plan):
            with exp.store.batch() as batch:
                batch.store_run(RunData(
                    once={"technique": "locky", "fs": "ufs"},
                    datasets=[{"S_chunk": 32, "access": "read",
                               "bw": 1.0}]))
        return {
            "fired": len(plan.log),
            "store": snapshot_store(exp.store),
        }
    outcomes = run_differential(scenario)
    assert outcomes["sqlite"]["fired"] == 1


def test_transient_lock_on_cache_put_identical():
    """cache.put lock faults are swallowed (cache stores are best
    effort); results and later cache hits must still agree."""
    def scenario(server, backend):
        exp = build_filled(server)
        plan = FaultPlan()
        plan.add("lock", "cache.put", times=1)
        with use_faults(plan):
            degraded = query_outcome(exp, QUERY_BATTERY["avg"](),
                                     cache=True)
        warm = query_outcome(exp, QUERY_BATTERY["avg"](), cache=True)
        return {"degraded": degraded, "warm": warm,
                "fired": len(plan.log)}
    run_differential(scenario)


def test_crash_mid_batch_rolls_back_identically():
    """A crash during a multi-run batch must leave no partial run
    visible — on either backend."""
    def scenario(server, backend):
        exp = make_simple_experiment(server)
        exp.store_run(RunData(
            once={"technique": "keep", "fs": "ufs"},
            datasets=[{"S_chunk": 32, "access": "read", "bw": 2.0}]))
        plan = FaultPlan()
        plan.add("crash", "db.run", after=4)
        try:
            with use_faults(plan):
                with exp.store.batch() as batch:
                    for rep in range(5):
                        batch.store_run(RunData(
                            once={"technique": f"lost{rep}",
                                  "fs": "ufs"},
                            datasets=[{"S_chunk": 64,
                                       "access": "write",
                                       "bw": float(rep)}]))
        except CrashFault:
            pass
        return snapshot_store(exp.store)
    outcomes = run_differential(scenario)
    # only the pre-batch run survives
    assert [r["once"]["technique"]
            for r in outcomes["sqlite"]["records"]] == ["keep"]


def _schema_state(store):
    """Everything a schema change touches: stored runs and variables,
    the raw definitions, every table's columns and the schema counter."""
    return {
        "store": snapshot_store(store),
        "definitions": store.db.fetchall(
            "SELECT name, definition FROM pb_variables ORDER BY position"),
        "columns": {table: store.db.table_columns(table)
                    for table in ["pb_once"] + [
                        store.run_table(i) for i in store.run_indices()]},
        "schema_counter": store.schema_counter(),
    }


SCHEMA_CHANGES = {
    "add_variable": lambda exp: exp.add_variable(Result(
        "latency", datatype=DataType.FLOAT,
        occurrence=Occurrence.MULTIPLE)),
    "remove_variable": lambda exp: exp.remove_variable("access"),
    "modify_variable": lambda exp: exp.modify_variable(Parameter(
        "access", datatype=DataType.STRING,
        occurrence=Occurrence.MULTIPLE, synopsis="access direction")),
}


@pytest.mark.parametrize("change", sorted(SCHEMA_CHANGES))
def test_failed_schema_change_rolls_back_identically(change):
    """A schema change that fails part-way must leave nothing pending:
    a later commit on the same connection persists none of it."""
    def scenario(server, backend):
        exp = fill_simple(make_simple_experiment(server), reps=2)
        before = _schema_state(exp.store)
        plan = FaultPlan()
        # fail the change's commit: every statement of it is pending
        plan.add("io", "db.commit")
        with use_faults(plan):
            with pytest.raises(InjectedIOError):
                SCHEMA_CHANGES[change](exp)
        exp.store.db.commit()
        after = _schema_state(exp.store)
        assert after == before
        return after
    run_differential(scenario)
