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


@pytest.mark.parametrize("backend", DIFF_BACKENDS)
def test_query_leaves_no_transaction_open(backend):
    exp = build_filled(make_server(backend))
    for _ in range(2):
        QUERY_BATTERY["diff"]().execute(exp)
        assert not exp.store.db.in_transaction
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


@pytest.mark.parametrize("backend", DIFF_BACKENDS)
def test_query_inside_a_callers_transaction_leaves_it_open(backend):
    """A query run inside a transaction its caller began neither
    commits nor ends it: the caller's rollback still undoes its own
    insert."""
    exp = build_filled(make_server(backend))
    db = exp.store.db
    db.create_table("probe", [("v", "INTEGER")])
    db.commit()
    db.begin()
    db.execute("INSERT INTO probe (v) VALUES (1)")
    QUERY_BATTERY["diff"]().execute(exp)
    assert db.in_transaction
    db.rollback()
    assert db.count_rows("probe") == 0
    exp.close()


@pytest.mark.parametrize("backend", DIFF_BACKENDS)
def test_only_the_last_overlapping_query_commits(backend, monkeypatch):
    """Two queries whose transactions overlap share one: the first to
    exit leaves it open for the other's statements, and the last to
    exit commits it, once."""
    db = make_server(backend).create_database("overlap")
    db.create_table("probe", [("v", "INTEGER")])
    db.commit()
    commits = []
    commit = type(db).commit

    def counted(self):
        commits.append(self)
        commit(self)
    monkeypatch.setattr(type(db), "commit", counted)
    first, second = db.read_transaction(), db.read_transaction()
    first.__enter__()
    second.__enter__()
    db.execute("INSERT INTO probe (v) VALUES (1)")
    first.__exit__(None, None, None)
    assert db.in_transaction and not commits
    db.execute("INSERT INTO probe (v) VALUES (2)")
    second.__exit__(None, None, None)
    assert not db.in_transaction and commits == [db]
    db.rollback()
    assert db.count_rows("probe") == 2
