"""Unit tests for the backend interface helpers."""

import pytest

from repro import Parameter, Result
from repro.core import DataType, Occurrence
from repro.core.errors import DatabaseError
from repro.db import (MemoryDatabase, SQLiteDatabase, SQLiteServer,
                      quote_identifier)
from repro.db.recovery import fsck
from repro.obs import InMemorySink, Tracer, use_tracer

from ..conftest import fill_simple, make_simple_experiment


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


class TestCatalogueMemo:
    """SQLite remembers ``tables_with_columns`` answers under the main
    schema's cookie: a repeated call reads only the cookie, and after
    any DDL the next call answers as a fresh connection would."""

    NAMES = ["full", "narrow", "ghost"]
    COLUMN_SETS = [["a", "b"], ["a"], ["b"], []]

    def _db(self, path):
        db = SQLiteDatabase(str(path))
        db.create_table("full", [("a", "INTEGER"), ("b", "TEXT")])
        db.create_table("narrow", [("a", "INTEGER")])
        db.commit()
        return db

    def _answers(self, db, names=NAMES):
        return [db.tables_with_columns(names, columns)
                for columns in self.COLUMN_SETS]

    def _assert_fresh(self, db, path, names=NAMES):
        fresh = SQLiteDatabase(str(path))
        try:
            assert self._answers(db, names) == self._answers(fresh, names)
        finally:
            fresh.close()

    @staticmethod
    def _cookie(db):
        return db.fetchone("PRAGMA schema_version")[0]

    def test_repeat_call_is_one_statement_one_row(self, tmp_path):
        db = self._db(tmp_path / "x.db")
        first = db.tables_with_columns(self.NAMES, ["a"])
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            again = db.tables_with_columns(self.NAMES, ["a"])
        assert again == first == {"full", "narrow"}
        assert tracer.metrics.counter("db.statements").value == 1
        assert tracer.metrics.counter("db.rows_fetched").value == 1

    @pytest.mark.parametrize("ddl", [
        'DROP TABLE "full"', 'ALTER TABLE "full" DROP COLUMN "b"',
        'ALTER TABLE "narrow" ADD COLUMN "b" TEXT',
        'CREATE TABLE "ghost" ("a" INTEGER, "b" TEXT)'],
        ids=["drop_table", "drop_column", "add_column", "create"])
    @pytest.mark.parametrize("other", [False, True],
                             ids=["same_connection", "second_connection"])
    def test_ddl_invalidates(self, tmp_path, ddl, other):
        path = tmp_path / "x.db"
        db = self._db(path)
        before = self._answers(db)
        writer = SQLiteDatabase(str(path)) if other else db
        writer.execute(ddl)
        writer.commit()
        if other:
            writer.close()
        self._assert_fresh(db, path)
        assert self._answers(db) != before

    def test_rollback_forgets(self, tmp_path):
        """A rolled-back CREATE takes the cookie back, and the next DDL
        moves it to the value the memo was filled at."""
        path = tmp_path / "x.db"
        db = self._db(path)
        names = self.NAMES + ["new"]
        db.begin()
        db.execute('CREATE TABLE "new" ("a" INTEGER, "b" TEXT)')
        filled_at = self._cookie(db)
        assert db.tables_with_columns(names, ["a", "b"]) == {"full", "new"}
        db.rollback()
        db.execute('CREATE TABLE "ghost" ("a" INTEGER)')
        db.commit()
        assert self._cookie(db) == filled_at
        self._assert_fresh(db, path, names)

    def test_failed_statement_forgets(self, tmp_path):
        """An interrupted INSERT rolls its whole transaction back, the
        way some errors do: the memo goes with it."""
        path = tmp_path / "x.db"
        db = self._db(path)
        names = self.NAMES + ["new"]
        db.begin()
        db.execute('CREATE TABLE "new" ("a" INTEGER, "b" TEXT)')
        filled_at = self._cookie(db)
        assert db.tables_with_columns(names, ["a", "b"]) == {"full", "new"}
        db._conn.set_progress_handler(lambda: 1, 1)
        with pytest.raises(DatabaseError, match="interrupted"):
            db.execute('INSERT INTO "new" VALUES (1, ?)', ("x",))
        db._conn.set_progress_handler(None, 1)
        assert not db._conn.in_transaction
        db.execute('CREATE TABLE "ghost" ("a" INTEGER)')
        db.commit()
        assert self._cookie(db) == filled_at
        self._assert_fresh(db, path, names)

    def test_own_create_probes_only_the_new_table(self, tmp_path):
        """An import's ``create_table`` moves the memo's tag with the
        cookie and records the new table's columns: the next call
        probes no table."""
        path = tmp_path / "x.db"
        db = self._db(path)
        names = self.NAMES + ["new"]
        assert db.tables_with_columns(names, ["a"]) == {"full", "narrow"}
        db.create_table("new", [("a", "INTEGER")])
        db.commit()
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            found = db.tables_with_columns(names, ["a"])
        assert found == {"full", "narrow", "new"}
        assert tracer.metrics.counter("db.statements").value == 1
        # the cookie row alone; a probe of "new" would add its row, a
        # refill those of "full" and "narrow" too
        assert tracer.metrics.counter("db.rows_fetched").value == 1
        self._assert_fresh(db, path, names)

    def test_own_create_after_foreign_ddl_refills(self, tmp_path):
        """Another connection's DDL before this handle's CREATE leaves
        the cookie past the memo's moved tag: the memo is refilled."""
        path = tmp_path / "x.db"
        db = self._db(path)
        names = self.NAMES + ["new"]
        before = self._answers(db, names)
        writer = SQLiteDatabase(str(path))
        writer.execute('DROP TABLE "full"')
        writer.commit()
        writer.close()
        db.create_table("new", [("a", "INTEGER"), ("b", "TEXT")])
        db.commit()
        self._assert_fresh(db, path, names)
        assert self._answers(db, names) != before

    def test_own_create_rolled_back_refills(self, tmp_path):
        path = tmp_path / "x.db"
        db = self._db(path)
        names = self.NAMES + ["new"]
        self._answers(db, names)
        db.begin()
        db.create_table("new", [("a", "INTEGER"), ("b", "TEXT")])
        assert db.tables_with_columns(names, ["a", "b"]) == {"full", "new"}
        db.rollback()
        db.create_table("ghost", [("b", "TEXT")])
        db.commit()
        self._assert_fresh(db, path, names)

    @staticmethod
    def _counted(db, names, columns):
        """``tables_with_columns``'s answer, its statements and the
        rows they fetched."""
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            found = db.tables_with_columns(names, columns)
        return found, (int(tracer.metrics.counter("db.statements").value),
                       int(tracer.metrics.counter("db.rows_fetched").value))

    def _assert_from_memory(self, db, path, names, column_sets):
        """Each column set is answered by the cookie row alone, as a
        fresh connection answers it."""
        fresh = SQLiteDatabase(str(path))
        try:
            for columns in column_sets:
                found, counts = self._counted(db, names, columns)
                assert counts == (1, 1), columns
                assert found == fresh.tables_with_columns(names, columns)
        finally:
            fresh.close()

    @staticmethod
    def _experiment(directory):
        """A two-run experiment whose handle created every table."""
        exp = make_simple_experiment(SQLiteServer(directory), "x")
        fill_simple(exp, reps=1)
        return exp, directory / "x.db"

    def test_own_add_and_remove_variable(self, tmp_path):
        exp, path = self._experiment(tmp_path)
        db = exp.store.db
        names = ["rundata_1", "rundata_2", "pb_once", "ghost"]
        exp.add_variable(Result("lat", datatype=DataType.FLOAT,
                                occurrence=Occurrence.MULTIPLE))
        exp.add_variable(Parameter("host", datatype=DataType.STRING))
        sets = [["bw", "lat"], ["lat"], ["host"], ["technique", "host"],
                []]
        self._assert_from_memory(db, path, names, sets)
        assert db.tables_with_columns(names, ["lat"]) \
            == {"rundata_1", "rundata_2"}
        exp.remove_variable("lat")
        exp.remove_variable("host")
        self._assert_from_memory(db, path, names, sets + [["bw"]])
        assert db.tables_with_columns(names, ["lat"]) == set()

    def test_own_delete_run_and_fsck_drop(self, tmp_path):
        exp, path = self._experiment(tmp_path)
        db = exp.store.db
        # a run table without its pb_runs row, as an interrupted
        # import leaves it
        db.create_table("rundata_9", [("dataset_index", "INTEGER"),
                                      ("bw", "REAL")])
        db.commit()
        names = ["rundata_1", "rundata_2", "rundata_9"]
        assert db.tables_with_columns(names, ["bw"]) == set(names)
        exp.delete_run(1)
        self._assert_from_memory(db, path, names, [["bw"], []])
        report = fsck(exp.store)
        assert [f.category for f in report.findings] == ["orphan-rundata"]
        self._assert_from_memory(db, path, names, [["bw"], []])
        assert db.tables_with_columns(names, ["bw"]) == {"rundata_2"}

    def test_own_create_rolled_back_refills_once(self, tmp_path):
        path = tmp_path / "x.db"
        db = self._db(path)
        names = self.NAMES + ["new"]
        self._answers(db, names)
        db.begin()
        db.create_table("new", [("a", "INTEGER"), ("b", "TEXT")])
        assert db.tables_with_columns(names, ["a"]) \
            == {"full", "narrow", "new"}
        db.rollback()
        # the rollback forgot the memo: one refill reads every table
        # and the two named ones, then the memo answers alone
        assert self._counted(db, names, ["a"]) \
            == ({"full", "narrow"}, (1, 3))
        self._assert_from_memory(db, path, names, self.COLUMN_SETS)

    def test_foreign_create_between_own_creates_refills_once(
            self, tmp_path):
        path = tmp_path / "x.db"
        db = self._db(path)
        names = self.NAMES + ["one", "foreign", "two"]
        self._answers(db, names)
        db.create_table("one", [("a", "INTEGER")])
        db.commit()
        writer = SQLiteDatabase(str(path))
        writer.create_table("foreign", [("a", "INTEGER"), ("b", "TEXT")])
        writer.commit()
        writer.close()
        db.create_table("two", [("b", "TEXT")])
        db.commit()
        # the cookie is one past the memo's tag: one refill reads the
        # five tables of the six names, then the memo answers alone
        assert self._counted(db, names, ["a"]) \
            == ({"full", "narrow", "one", "foreign"}, (1, 6))
        self._assert_from_memory(db, path, names, self.COLUMN_SETS)

    def test_temp_table_shadowing_a_main_table(self, tmp_path):
        """A statement names this handle's temp table before the main
        table of the same name: dropping it leaves the main one, and
        the memo knows."""
        path = tmp_path / "x.db"
        db = self._db(path)
        db.create_table("full", [("z", "INTEGER")], temporary=True)
        db.drop_table("full")
        self._assert_from_memory(db, path, self.NAMES, self.COLUMN_SETS)
        assert db.tables_with_columns(self.NAMES, ["b"]) == {"full"}
        db.drop_table("full")
        db.commit()
        self._assert_from_memory(db, path, self.NAMES, self.COLUMN_SETS)
        assert db.tables_with_columns(self.NAMES, ["a"]) == {"narrow"}

    def test_own_index_joins_the_memo(self, tmp_path):
        """``create_index`` moves the tag unless the index exists."""
        path = tmp_path / "x.db"
        db = self._db(path)
        for _ in range(2):
            db.create_index("full_a", "full", ["a"])
            db.commit()
            self._assert_from_memory(db, path, self.NAMES + ["full_a"],
                                     self.COLUMN_SETS)

    def test_temp_create_keeps_the_memo(self, tmp_path):
        """A temp table leaves the main cookie and the memo alone."""
        path = tmp_path / "x.db"
        db = self._db(path)
        self._answers(db)
        db.create_table("pbtmp_x", [("a", "INTEGER")], temporary=True)
        self._assert_fresh(db, path)
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            assert db.tables_with_columns(self.NAMES, ["a"]) \
                == {"full", "narrow"}
        assert tracer.metrics.counter("db.rows_fetched").value == 1
