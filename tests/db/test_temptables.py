"""Unit tests for the temp-table manager (element communication,
Section 4.2)."""

import pytest

from repro.core.errors import DatabaseError
from repro.db import MemoryDatabase, SQLiteDatabase, TempTableManager


class TestTempTableManager:
    def test_unique_names(self):
        db = SQLiteDatabase()
        mgr = TempTableManager(db)
        a = mgr.new_table("src", [("x", "INTEGER")])
        b = mgr.new_table("src", [("x", "INTEGER")])
        assert a != b
        assert db.table_exists(a) and db.table_exists(b)

    def test_element_name_sanitised(self):
        db = SQLiteDatabase()
        mgr = TempTableManager(db)
        name = mgr.new_table("weird name!", [("x", "INTEGER")])
        assert db.table_exists(name)

    def test_drop_all(self):
        # teardown releases each table to the handle's pool: it stays,
        # emptied and idle, for the next query to lease
        db = SQLiteDatabase()
        mgr = TempTableManager(db)
        names = [mgr.new_table("e", [("x", "INTEGER")])
                 for _ in range(3)]
        for name in names:
            db.insert_rows(name, ["x"], [(1,), (2,)])
        mgr.drop_all()
        for name in names:
            assert db.temp_pool.is_idle(name)
            assert db.count_rows(name) == 0
        assert mgr.tables == []

    def test_context_manager(self):
        db = SQLiteDatabase()
        with TempTableManager(db) as mgr:
            name = mgr.new_table("e", [("x", "INTEGER")])
            db.insert_rows(name, ["x"], [(1,)])
            assert not db.temp_pool.is_idle(name)
        assert db.temp_pool.is_idle(name) and db.count_rows(name) == 0

    def test_adopt(self):
        db = SQLiteDatabase()
        db.create_table("external", [("x", "INTEGER")])
        mgr = TempTableManager(db)
        mgr.adopt("external")
        mgr.drop_all()
        assert not db.table_exists("external")

    def test_row_count(self):
        db = SQLiteDatabase()
        mgr = TempTableManager(db)
        name = mgr.new_table("e", [("x", "INTEGER")])
        db.insert_rows(name, ["x"], [(1,), (2,)])
        assert mgr.row_count(name) == 2

    def test_prefix_used(self):
        db = SQLiteDatabase()
        mgr = TempTableManager(db, prefix="myq")
        name = mgr.new_table("e", [("x", "INTEGER")])
        assert name.startswith("myq_")


@pytest.mark.parametrize("make_db", [SQLiteDatabase,
                                     lambda: MemoryDatabase("temps")],
                         ids=["sqlite", "memory"])
class TestLeftovers:
    def test_kept_leftover_is_skipped_not_clobbered(self, make_db):
        db = make_db()
        kept = TempTableManager(db).new_table("e", [("x", "INTEGER")])
        db.insert_rows(kept, ["x"], [(7,)])
        mgr = TempTableManager(db)
        name = mgr.new_table("e", [("x", "INTEGER")])
        assert kept.endswith("_0") and name.endswith("_1")
        assert db.fetchall(f"SELECT x FROM {kept}") == [(7,)]
        assert mgr.row_count(name) == 0
        mgr.drop_all()
        # the kept table stays leased and whole; the other is released
        assert db.fetchall(f"SELECT x FROM {kept}") == [(7,)]
        assert not db.temp_pool.is_idle(kept)
        assert db.temp_pool.is_idle(name) and mgr.row_count(name) == 0

    def test_other_create_errors_propagate(self, make_db):
        db = make_db()
        mgr = TempTableManager(db)
        db.close()
        with pytest.raises(DatabaseError):
            mgr.new_table("e", [("x", "INTEGER")])
        assert mgr.tables == []
