"""Unit tests of the in-memory columnar backend's SQL interpreter and
storage semantics (the cross-backend battery lives in tests/diffdb)."""

import pytest

from repro.core.errors import (DatabaseError, ExperimentExistsError,
                               NoSuchExperimentError)
from repro.db import MemoryDatabase, MemoryDatabaseServer
from repro.db.memory_backend import memory_server_for


@pytest.fixture
def db():
    return MemoryDatabaseServer().create_database("unit")


class TestAffinity:
    def test_integer_affinity_converts_integral_floats(self, db):
        db.create_table("t", [("v", "INTEGER")])
        db.insert_rows("t", ["v"], [(2.0,), (2.5,), ("7",), (True,)])
        assert db.fetchall("SELECT v FROM t") == [(2,), (2.5,), (7,),
                                                  (1,)]

    def test_real_affinity_converts_ints(self, db):
        db.create_table("t", [("v", "REAL")])
        db.insert_rows("t", ["v"], [(2,), ("3.5",), ("x",)])
        assert db.fetchall("SELECT v FROM t") == [(2.0,), (3.5,),
                                                  ("x",)]

    def test_text_affinity_stringifies_numbers(self, db):
        db.create_table("t", [("v", "TEXT")])
        db.insert_rows("t", ["v"], [(1,), (1.5,), ("s",)])
        assert db.fetchall("SELECT v FROM t") == [("1",), ("1.5",),
                                                  ("s",)]


class TestPrimaryKeys:
    def test_integer_pk_is_rowid_alias_scan_order(self, db):
        db.create_table("t", [("k", "INTEGER PRIMARY KEY"),
                              ("v", "TEXT")])
        db.insert_rows("t", ["k", "v"], [(5, "five"), (2, "two"),
                                         (9, "nine")])
        # scan order follows the key, not insertion
        assert db.fetchall("SELECT k FROM t") == [(2,), (5,), (9,)]
        assert db.fetchall("SELECT rowid FROM t") == [(2,), (5,), (9,)]

    def test_duplicate_pk_raises_unique_error(self, db):
        db.create_table("t", [("k", "TEXT PRIMARY KEY"),
                              ("v", "INTEGER")])
        db.execute("INSERT INTO t (k, v) VALUES (?, ?)", ("a", 1))
        with pytest.raises(DatabaseError, match="UNIQUE constraint"):
            db.execute("INSERT INTO t (k, v) VALUES (?, ?)", ("a", 2))

    def test_upsert_updates_in_place(self, db):
        db.create_table("t", [("k", "TEXT PRIMARY KEY"),
                              ("v", "TEXT")])
        db.execute("INSERT INTO t (k, v) VALUES (?, ?) "
                   "ON CONFLICT(k) DO UPDATE SET v=excluded.v",
                   ("a", "one"))
        db.execute("INSERT INTO t (k, v) VALUES (?, ?) "
                   "ON CONFLICT(k) DO UPDATE SET v=excluded.v",
                   ("a", "two"))
        assert db.fetchall("SELECT k, v FROM t") == [("a", "two")]


class TestTransactions:
    def test_rollback_undoes_insert_update_delete(self, db):
        db.create_table("t", [("v", "INTEGER")])
        db.insert_rows("t", ["v"], [(1,), (2,)])
        db.commit()
        db.begin()
        db.execute("INSERT INTO t (v) VALUES (?)", (3,))
        db.execute("UPDATE t SET v = v + 10 WHERE v = 1")
        db.execute("DELETE FROM t WHERE v = 2")
        db.rollback()
        assert db.fetchall("SELECT v FROM t") == [(1,), (2,)]

    def test_rollback_undoes_ddl_inside_transaction(self, db):
        db.create_table("keep", [("v", "INTEGER")])
        db.commit()
        db.begin()
        db.execute("INSERT INTO keep (v) VALUES (1)")
        db.create_table("gone", [("v", "INTEGER")])
        db.execute('ALTER TABLE keep ADD COLUMN "extra" REAL')
        db.rollback()
        assert not db.table_exists("gone")
        assert db.table_columns("keep") == ["v"]
        assert db.count_rows("keep") == 0

    def test_dml_opens_implicit_transaction(self, db):
        db.create_table("t", [("v", "INTEGER")])
        db.commit()
        db.execute("INSERT INTO t (v) VALUES (1)")  # implicit begin
        db.rollback()
        assert db.count_rows("t") == 0

    def test_commit_ends_transaction(self, db):
        db.create_table("t", [("v", "INTEGER")])
        db.execute("INSERT INTO t (v) VALUES (1)")
        db.commit()
        db.rollback()  # no-op outside a transaction
        assert db.count_rows("t") == 1


class TestSelectShapes:
    def test_group_by_output_sorted_by_key(self, db):
        db.create_table("t", [("g", "TEXT"), ("v", "INTEGER")])
        db.insert_rows("t", ["g", "v"],
                       [("z", 1), ("a", 2), ("z", 3), ("a", 4)])
        assert db.fetchall(
            'SELECT g, SUM(v) FROM t GROUP BY g') == [("a", 6),
                                                      ("z", 4)]

    def test_aggregate_in_expression(self, db):
        db.create_table("t", [("v", "INTEGER")])
        assert db.fetchone(
            "SELECT COALESCE(MAX(v), -1) + 1 FROM t") == (0,)
        db.insert_rows("t", ["v"], [(41,)])
        assert db.fetchone(
            "SELECT COALESCE(MAX(v), -1) + 1 FROM t") == (42,)

    def test_join_on_rowid(self, db):
        db.create_table("a", [("x", "INTEGER")])
        db.create_table("b", [("y", "INTEGER")])
        db.insert_rows("a", ["x"], [(1,), (2,)])
        db.insert_rows("b", ["y"], [(10,), (20,)])
        rows = db.fetchall("SELECT a.x, b.y FROM a a JOIN b b "
                           "ON a.rowid = b.rowid")
        assert rows == [(1, 10), (2, 20)]

    def test_union_all_insert_select(self, db):
        db.create_table("src", [("v", "INTEGER")])
        db.insert_rows("src", ["v"], [(1,), (2,)])
        db.create_table("dst", [("v", "INTEGER")])
        db.execute("INSERT INTO dst SELECT v FROM src "
                   "UNION ALL SELECT v + 10 FROM src")
        assert db.fetchall("SELECT v FROM dst") == [(1,), (2,), (11,),
                                                    (12,)]

    def test_like_and_in_filters(self, db):
        db.create_table("t", [("s", "TEXT")])
        db.insert_rows("t", ["s"], [("read",), ("write",), ("rewind",)])
        assert db.fetchall(
            "SELECT s FROM t WHERE s LIKE 're%'") == [("read",),
                                                      ("rewind",)]
        assert db.fetchall(
            "SELECT s FROM t WHERE s IN (?, ?)",
            ("write", "x")) == [("write",)]

    def test_unknown_statement_raises_with_sql(self, db):
        with pytest.raises(DatabaseError, match=r"\[sql:"):
            db.fetchall("SELECT v FROM missing")


#: one statement per construct outside the grammar perfbase emits
UNSUPPORTED = {
    "text_transaction": "BEGIN",
    "scalar_subquery": "SELECT v / (SELECT MAX(v) FROM t) FROM t",
    "concatenation": "SELECT s || 'x' FROM t",
    "not_in": "SELECT v FROM t WHERE v NOT IN (1, 2)",
    "non_equality_join": "SELECT a.x FROM a a JOIN b b ON a.x < b.y",
    "comma_join": "SELECT a.x, b.y FROM a, b",
    "group_by_expression":
        "SELECT v + 1, COUNT(*) FROM t GROUP BY v + 1",
    "insert_select_into_primary_key":
        "INSERT INTO pk (k) SELECT v FROM t",
    "compound_order_by":
        "SELECT v FROM t UNION ALL SELECT v FROM t ORDER BY v",
    "compound_limit": "SELECT v FROM t UNION ALL SELECT v FROM t LIMIT 1",
}


@pytest.mark.parametrize("construct", sorted(UNSUPPORTED))
def test_unsupported_construct_raises_quoting_statement(db, construct):
    db.create_table("t", [("v", "INTEGER"), ("s", "TEXT")])
    db.insert_rows("t", ["v", "s"], [(1, "a"), (2, "b")])
    db.create_table("a", [("x", "INTEGER")])
    db.create_table("b", [("y", "INTEGER")])
    db.insert_rows("a", ["x"], [(1,)])
    db.insert_rows("b", ["y"], [(2,)])
    db.create_table("pk", [("k", "INTEGER PRIMARY KEY")])
    sql = UNSUPPORTED[construct]
    with pytest.raises(DatabaseError) as excinfo:
        db.execute(sql)
    assert f"[sql: {sql}]" in str(excinfo.value)


class TestServer:
    def test_create_open_drop_cycle(self):
        server = MemoryDatabaseServer()
        db = server.create_database("e1")
        assert isinstance(db, MemoryDatabase)
        assert server.list_databases() == ["e1"]
        with pytest.raises(ExperimentExistsError):
            server.create_database("e1")
        assert server.open_database("e1") is db
        server.drop_database("e1")
        with pytest.raises(NoSuchExperimentError):
            server.open_database("e1")

    def test_close_is_soft_until_reopened(self):
        server = MemoryDatabaseServer()
        db = server.create_database("e")
        db.create_table("t", [("v", "INTEGER")])
        db.close()
        with pytest.raises(DatabaseError, match="closed"):
            db.fetchall("SELECT v FROM t")
        reopened = server.open_database("e")
        assert reopened is db  # data survives a close/open cycle
        assert reopened.fetchall("SELECT v FROM t") == []

    def test_directory_registry_returns_same_server(self, tmp_path):
        a = memory_server_for(str(tmp_path / "dir"))
        b = memory_server_for(str(tmp_path / "dir"))
        c = memory_server_for(str(tmp_path / "other"))
        assert a is b
        assert a is not c

    def test_backend_name(self):
        assert MemoryDatabaseServer.backend_name == "memory"

    def test_attach_unavailable(self):
        server = MemoryDatabaseServer()
        db = server.create_database("e")
        other = server.create_database("f")
        assert db.attachable_uri is None
        assert db.attach(other) is None


class TestJoinInput:
    """WHERE conjuncts that read one source filter it before the join;
    a table joined on its primary key is probed, not scanned."""

    @pytest.mark.parametrize("n_runs", [10, 200])
    def test_find_import_joins_one_file_row(self, monkeypatch, n_runs):
        from repro import RunData
        from repro.db import memory_backend
        from tests.conftest import make_simple_experiment

        exp = make_simple_experiment(MemoryDatabaseServer(), "joins")
        for i in range(n_runs):
            run = RunData(once={"technique": "t", "fs": "ufs"},
                          datasets=[{"S_chunk": 1, "access": "read",
                                     "bw": float(i)}],
                          source_files=[f"run{i}.sum"])
            run.file_checksums = {f"run{i}.sum": f"sum{i}"}
            exp.store_run(run)
        wanted = n_runs // 2
        expected = exp.run_indices()[wanted]
        probes: list = []
        scanned: list[int] = []
        real_probe = memory_backend._Table.pk_position
        real_scan = memory_backend._Frame.of_source.__func__

        def probe(table, value):
            probes.append((table.name, value))
            return real_probe(table, value)

        def scan(cls, width, k, rows):
            scanned.append(k)
            return real_scan(cls, width, k, rows)

        def no_hash_join(left_keys, right_keys):
            raise AssertionError("pb_runs was hashed")
        monkeypatch.setattr(memory_backend._Table, "pk_position", probe)
        monkeypatch.setattr(memory_backend._Frame, "of_source",
                            classmethod(scan))
        monkeypatch.setattr(memory_backend, "_hash_join", no_hash_join)
        assert exp.store.find_import(f"sum{wanted}") == expected
        # one pb_run_files row (the checksum's) probes pb_runs' key,
        # and pb_runs (source 1) is never filtered as a whole
        assert probes == [("pb_runs", expected)]
        assert scanned and 1 not in scanned
