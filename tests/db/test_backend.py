"""Unit tests for the backend interface helpers."""

import pytest

from repro.core.errors import DatabaseError
from repro.db import MemoryDatabase, SQLiteDatabase, quote_identifier
from repro.obs import InMemorySink, Tracer, use_tracer


class TestQuoteIdentifier:
    def test_simple(self):
        assert quote_identifier("abc") == '"abc"'
        assert quote_identifier("a_b2") == '"a_b2"'

    @pytest.mark.parametrize("bad", [
        "", "2abc", "a-b", "a b", 'a"b', "a;b", "a.b",
        "x; DROP TABLE pb_runs; --",
    ])
    def test_injection_rejected(self, bad):
        with pytest.raises(DatabaseError):
            quote_identifier(bad)


class TestConvenienceHelpers:
    def test_create_insert_count(self):
        db = SQLiteDatabase()
        db.create_table("t", [("a", "INTEGER"), ("b", "TEXT")])
        db.insert_rows("t", ["a", "b"], [(1, "x"), (2, "y")])
        assert db.count_rows("t") == 2

    def test_primary_key(self):
        db = SQLiteDatabase()
        db.create_table("t", [("id", "INTEGER"), ("v", "TEXT")],
                        primary_key="id")
        db.insert_rows("t", ["id", "v"], [(1, "x")])
        with pytest.raises(DatabaseError):
            db.insert_rows("t", ["id", "v"], [(1, "dup")])

    def test_temporary_table(self):
        db = SQLiteDatabase()
        db.create_table("tmp", [("a", "INTEGER")], temporary=True)
        assert db.table_exists("tmp")

    def test_table_columns(self):
        db = SQLiteDatabase()
        db.create_table("t", [("a", "INTEGER"), ("b", "TEXT")])
        assert db.table_columns("t") == ["a", "b"]

    def test_table_columns_missing_raises(self):
        db = SQLiteDatabase()
        with pytest.raises(DatabaseError):
            db.table_columns("ghost")

    def test_drop_table_idempotent(self):
        db = SQLiteDatabase()
        db.create_table("t", [("a", "INTEGER")])
        db.drop_table("t")
        db.drop_table("t")
        assert not db.table_exists("t")

    def test_list_tables(self):
        db = SQLiteDatabase()
        db.create_table("b", [("x", "INTEGER")])
        db.create_table("a", [("x", "INTEGER")])
        assert db.list_tables() == ["a", "b"]

    def test_fetchone_none(self):
        db = SQLiteDatabase()
        db.create_table("t", [("a", "INTEGER")])
        assert db.fetchone("SELECT a FROM t") is None

    def test_bad_sql_wrapped(self):
        db = SQLiteDatabase()
        with pytest.raises(DatabaseError):
            db.execute("SELCT broken")


@pytest.mark.parametrize("factory", [SQLiteDatabase, MemoryDatabase],
                         ids=["sqlite", "memory"])
class TestTablesWithColumns:
    def _db(self, factory):
        db = factory()
        db.create_table("full", [("a", "INTEGER"), ("b", "TEXT")])
        db.create_table("narrow", [("a", "INTEGER")])
        return db

    def test_skips_missing_tables_and_columns(self, factory):
        db = self._db(factory)
        names = ["full", "narrow", "ghost"]
        assert db.tables_with_columns(names, ["a", "b"]) == {"full"}
        assert db.tables_with_columns(names, ["b", "a", "b"]) == {"full"}
        assert db.tables_with_columns(names, ["a"]) == {"full", "narrow"}
        assert db.tables_with_columns(names, []) == {"full", "narrow"}
        assert db.tables_with_columns(names, ["A"]) == set()
        assert db.tables_with_columns([], ["a"]) == set()

    def test_one_statement_however_many_names(self, factory):
        db = self._db(factory)
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            db.tables_with_columns(["full"], ["a"])
            db.tables_with_columns(["full", "narrow", "ghost"], ["a"])
        expected = 2 if factory is SQLiteDatabase else 0
        assert tracer.metrics.counter("db.statements").value == expected
