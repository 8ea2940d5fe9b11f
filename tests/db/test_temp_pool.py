"""The per-handle temp-table pool (Section 4.2's element tables, kept
between queries).

A query leases its temp tables from its database handle's pool and
empties them at teardown; a re-run leases them back without a
statement.  These tests pin the counts of that reuse and the pool's
correctness: exclusive leases, teardown after failures, rollbacks, and
``fsck``, which must not report idle pooled tables as leaks.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro import Experiment
from repro.core.errors import DatabaseError
from repro.db import MemoryDatabase, SQLiteDatabase, TempTableManager, fsck
from repro.db.temptables import IDLE_BOUND
from repro.faults import FaultPlan, use_faults
from repro.obs import InMemorySink, Tracer, use_tracer
from repro.parse import Importer
from repro.testing import make_server
from repro.workloads.beffio_assets import (experiment_xml, fig8_query_xml,
                                           input_xml)
from repro.xmlio import (parse_experiment_xml, parse_input_xml,
                         parse_query_xml)

BACKENDS = ["sqlite", "memory"]
LAYOUT = [("x", "INTEGER")]


def beffio(backend, campaign):
    definition = parse_experiment_xml(experiment_xml())
    exp = Experiment.create(make_server(backend), definition.name,
                            list(definition.variables), definition.info)
    importer = Importer(exp, parse_input_xml(input_xml()))
    for fname, content in campaign:
        importer.import_text(content, fname)
    return exp


def fig8(exp, **kwargs):
    """fig8's artefacts as ``(name, content)`` pairs."""
    result = parse_query_xml(fig8_query_xml()).execute(exp, **kwargs)
    return [(a.name, a.content) for a in result.artifacts]


def pooled(db):
    """The handle's query temp tables, each with its row count."""
    return {t: db.count_rows(t) for t in db.list_tables()
            if t.startswith("pbq_")}


def assert_released(db):
    """Every query temp table on the handle is idle and empty."""
    tables = pooled(db)
    assert tables and set(tables.values()) == {0}
    assert all(db.temp_pool.is_idle(t) for t in tables)


#: (temptables.created, temptables.reused, CREATE, DROP, DELETE,
#: db.statements) of a cold and a warm fig8 on one handle over the
#: 6-run ``beffio_campaign``.  Fused, fig8 is one group with one temp
#: table; unfused, each of its five non-output elements has one.  A
#: warm run leases every table back: no DDL, one DELETE per table.
WARM_COUNTS = {
    ("sqlite", True): ((1, 0, 1, 0, 1, 10), (0, 1, 0, 0, 1, 9)),
    ("sqlite", False): ((5, 0, 5, 0, 5, 22), (0, 5, 0, 0, 5, 17)),
    ("memory", True): ((1, 0, 1, 0, 1, 8), (0, 1, 0, 0, 1, 7)),
    ("memory", False): ((5, 0, 5, 0, 5, 20), (0, 5, 0, 0, 5, 15)),
}


@pytest.mark.parametrize("backend,pushdown", sorted(WARM_COUNTS))
def test_warm_fig8_issues_no_ddl(backend, pushdown, beffio_campaign):
    exp = beffio(backend, beffio_campaign)
    counts, outputs = [], []
    for _phase in ("cold", "warm"):
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            outputs.append(fig8(exp, pushdown=pushdown))
        kinds = Counter(s.attributes["sql"].split()[0]
                        for s in tracer.spans if s.kind == "db")
        metric = tracer.metrics.counter
        counts.append((int(metric("temptables.created").value),
                       int(metric("temptables.reused").value),
                       kinds["CREATE"], kinds["DROP"], kinds["DELETE"],
                       int(metric("db.statements").value)))
    assert tuple(counts) == WARM_COUNTS[backend, pushdown]
    assert outputs[0] == outputs[1]
    assert_released(exp.store.db)


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_threads_lease_distinct_tables(backend, beffio_campaign):
    """Two queries on one handle that need the same temp-table name,
    both holding their first lease at once: each gets its own table
    and neither sees the other's rows."""
    exp = beffio(backend, beffio_campaign)
    expected = fig8(exp, pushdown=True)
    barrier = threading.Barrier(2, timeout=30)
    first_leases: list[str] = []
    seen = threading.local()
    original = TempTableManager.new_table

    def new_table(self, element_name, columns):
        name = original(self, element_name, columns)
        if not getattr(seen, "leased", False):
            seen.leased = True
            first_leases.append(name)
            barrier.wait()
        return name

    outputs: list = [None, None]

    def worker(i):
        outputs[i] = fig8(exp, pushdown=True)

    TempTableManager.new_table = new_table
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        TempTableManager.new_table = original
    assert sorted(name.rsplit("_", 1)[1] for name in first_leases) \
        == ["0", "1"]
    assert outputs == [expected, expected]
    assert_released(exp.store.db)
    # the last query to finish commits the transaction both ran in
    assert not exp.store.db.in_transaction


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("pushdown,insert", [(True, 0), (False, 1)],
                         ids=["fused", "unfused"])
def test_failed_insert_leaves_no_rows(backend, pushdown, insert,
                                      beffio_campaign):
    """A db.run fault on fig8's fused INSERT, or on the unfused fig8's
    second INSERT after the first wrote its rows: teardown empties
    every table it leased, and the next query reads none of its rows."""
    exp = beffio(backend, beffio_campaign)
    expected = fig8(exp, pushdown=pushdown)
    probe = FaultPlan()
    probe.add("latency", "db.run", ms=0)
    with use_faults(probe):
        assert fig8(exp, pushdown=pushdown) == expected
    inserts = [i for i, record in enumerate(probe.log)
               if record.context["sql"].startswith("INSERT INTO")]
    plan = FaultPlan()
    plan.add("io", "db.run", times=1, after=inserts[insert])
    with use_faults(plan):
        with pytest.raises(OSError):
            fig8(exp, pushdown=pushdown)
    assert plan.log[0].context["sql"].startswith("INSERT INTO")
    assert_released(exp.store.db)
    assert fig8(exp, pushdown=pushdown) == expected


@pytest.mark.parametrize("make_db", [SQLiteDatabase,
                                     lambda: MemoryDatabase("pool")],
                         ids=BACKENDS)
class TestPool:
    def test_layout_change_recreates(self, make_db):
        db = make_db()
        mgr = TempTableManager(db, prefix="pbq_q")
        name = mgr.new_table("e", LAYOUT)
        mgr.drop_all()
        again = TempTableManager(db, prefix="pbq_q").new_table(
            "e", [("y", "TEXT"), ("z", "REAL")])
        assert again == name
        assert db.table_columns(name) == ["y", "z"]

    def test_release_empties_and_reuses(self, make_db):
        db = make_db()
        mgr = TempTableManager(db, prefix="pbq_q")
        name = mgr.new_table("e", LAYOUT)
        db.insert_rows(name, ["x"], [(1,), (2,)])
        mgr.drop_all()
        again = TempTableManager(db, prefix="pbq_q")
        assert again.new_table("e", LAYOUT) == name
        assert again.row_count(name) == 0

    def test_idle_tables_are_bounded(self, make_db):
        db = make_db()
        mgr = TempTableManager(db, prefix="pbq_q")
        names = [mgr.new_table("e", LAYOUT)
                 for _ in range(IDLE_BOUND + 3)]
        mgr.drop_all()
        # the first three released were least recently used: dropped
        assert not any(db.table_exists(n) for n in names[:3])
        assert all(db.temp_pool.is_idle(n) for n in names[3:])
        assert len(pooled(db)) == IDLE_BOUND

    def test_rollback_after_create(self, make_db):
        """A rollback undoes the CREATE of a released table: its next
        lease creates it again."""
        db = make_db()
        db.commit()
        db.begin()
        with TempTableManager(db, prefix="pbq_q") as mgr:
            name = mgr.new_table("e", LAYOUT)
        assert db.temp_pool.is_idle(name)
        db.rollback()
        assert not db.table_exists(name)
        assert not db.temp_pool.is_idle(name)
        with TempTableManager(db, prefix="pbq_q") as mgr:
            assert mgr.new_table("e", LAYOUT) == name
            db.insert_rows(name, ["x"], [(3,)])
            assert db.fetchall(f"SELECT x FROM {name}") == [(3,)]

    def test_rollback_after_delete(self, make_db):
        """A rollback undoes the emptying DELETE of a released table
        whose rows were committed: its next lease is empty again."""
        db = make_db()
        mgr = TempTableManager(db, prefix="pbq_q")
        name = mgr.new_table("e", LAYOUT)
        db.insert_rows(name, ["x"], [(1,), (2,)])
        db.commit()
        db.begin()
        mgr.drop_all()
        db.rollback()
        assert db.count_rows(name) == 2
        again = TempTableManager(db, prefix="pbq_q")
        assert again.new_table("e", LAYOUT) == name
        assert again.row_count(name) == 0

    def test_drop_table_evicts(self, make_db):
        db = make_db()
        mgr = TempTableManager(db, prefix="pbq_q")
        name = mgr.new_table("e", LAYOUT)
        mgr.drop_all()
        db.drop_table(name)
        assert not db.temp_pool.is_idle(name)
        again = TempTableManager(db, prefix="pbq_q")
        assert again.new_table("e", LAYOUT) == name
        assert db.table_exists(name)

    def test_failed_delete_drops(self, make_db):
        """A table whose DELETE fails at teardown is dropped and
        evicted; teardown itself succeeds."""
        db = make_db()
        mgr = TempTableManager(db, prefix="pbq_q")
        name = mgr.new_table("e", LAYOUT)
        plan = FaultPlan()
        plan.add("io", "db.run", times=1)
        with use_faults(plan):
            mgr.drop_all()
        assert plan.fired() == 1
        assert not db.table_exists(name)
        assert not db.temp_pool.is_idle(name)


def test_failed_statement_ending_the_transaction_forgets(tmp_path):
    """On SQLite an interrupted INSERT rolls its whole transaction back,
    the CREATE of a released table with it: the pool must not hand that
    table out as idle."""
    db = SQLiteDatabase(str(tmp_path / "x.db"))
    db.create_table("data", LAYOUT)
    db.commit()
    db.begin()
    with TempTableManager(db, prefix="pbq_q") as mgr:
        name = mgr.new_table("e", LAYOUT)
    db._conn.set_progress_handler(lambda: 1, 1)
    with pytest.raises(DatabaseError, match="interrupted"):
        db.execute('INSERT INTO "data" VALUES (1)')
    db._conn.set_progress_handler(None, 1)
    assert not db._conn.in_transaction
    assert not db.table_exists(name)
    with TempTableManager(db, prefix="pbq_q") as mgr:
        assert mgr.new_table("e", LAYOUT) == name
        assert mgr.row_count(name) == 0
    db.close()


@pytest.mark.faults
@pytest.mark.parametrize("backend", BACKENDS)
class TestFsck:
    def test_idle_pooled_tables_are_not_leaks(self, backend,
                                              beffio_campaign):
        exp = beffio(backend, beffio_campaign)
        fig8(exp, pushdown=True)
        fig8(exp)
        assert pooled(exp.store.db)
        report = fsck(exp.store)
        assert report.clean, report.summary()
        assert_released(exp.store.db)

    def test_kept_result_is_a_leak(self, backend, beffio_campaign):
        exp = beffio(backend, beffio_campaign)
        fig8(exp)
        parse_query_xml(fig8_query_xml()).execute(exp,
                                                  keep_temp_tables=True)
        db = exp.store.db
        kept = {t for t, rows in pooled(db).items()
                if not db.temp_pool.is_idle(t)}
        assert kept
        report = fsck(exp.store)
        assert {f.detail for f in report.findings} == {
            f"leaked query temp table {t!r}" for t in kept}
        assert not kept & set(db.list_tables())
        assert fsck(exp.store).clean

    def test_unknown_table_is_a_leak(self, backend, beffio_campaign):
        exp = beffio(backend, beffio_campaign)
        fig8(exp)
        db = exp.store.db
        db.create_table("pbq_crashed_e_0", LAYOUT, temporary=True)
        report = fsck(exp.store)
        assert [f.category for f in report.findings] == ["temp-table"]
        assert "pbq_crashed_e_0" in report.findings[0].detail
        assert not db.table_exists("pbq_crashed_e_0")
        assert_released(db)
