"""A query runs in one transaction that it closes: no backend keeps it
open afterwards, so a later failed batch cannot roll the query's temp
tables back into the experiment, and a closed experiment holds no
dropped tables alive."""

import gc
import weakref

import pytest

from repro import RunData
from repro.testing import DIFF_BACKENDS, make_server, run_differential
from tests.diffdb.conftest import QUERY_BATTERY, build_filled

pytestmark = pytest.mark.diffdb


def _in_transaction(db) -> bool:
    if hasattr(db, "_undo"):
        return db._in_txn or bool(db._undo)
    return db._conn.in_transaction


@pytest.mark.parametrize("backend", DIFF_BACKENDS)
def test_query_leaves_no_transaction_open(backend):
    exp = build_filled(make_server(backend))
    for _ in range(2):
        QUERY_BATTERY["diff"]().execute(exp)
        assert not _in_transaction(exp.store.db)
    exp.close()


def test_failed_batch_after_query_restores_no_temp_table():
    def scenario(server, backend):
        exp = build_filled(server)
        QUERY_BATTERY["diff"]().execute(exp)
        with pytest.raises(RuntimeError):
            with exp.store.batch() as batch:
                batch.store_run(RunData(
                    once={"technique": "late", "fs": "ufs"},
                    datasets=[{"S_chunk": 32, "access": "read",
                               "bw": 1.0}]))
                raise RuntimeError("abort the batch")
        return exp.store.db.list_tables()
    run_differential(scenario)


def test_closed_memory_experiment_is_freed_without_gc():
    gc.disable()
    try:
        server = make_server("memory")
        exp = build_filled(server)
        QUERY_BATTERY["diff"]().execute(exp)
        freed = weakref.ref(exp.store.db)
        exp.close()
        del exp, server
        assert freed() is None
    finally:
        gc.enable()
