"""``INSERT .. VALUES`` batches, bound-parameter counts, row counts and
primary-key joins: the columnar engine stores, counts and rejects
exactly what SQLite does, and does each batch's fixed work once."""

from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RunData
from repro.core.errors import DatabaseError
from repro.db import memory_backend
from repro.obs.metrics import MetricsView
from repro.testing import DIFF_BACKENDS, make_server, run_differential
from tests.conftest import make_simple_experiment

pytestmark = pytest.mark.diffdb


def _databases():
    return {backend: make_server(backend).create_database("batches")
            for backend in DIFF_BACKENDS}


def _outcome(call):
    """``("ok", value)``, or the error's class and message without the
    statement both backends append to it."""
    try:
        return ("ok", call())
    except DatabaseError as exc:
        return (type(exc).__name__, str(exc).split(" [sql: ")[0])


def _typed(rows):
    """Rows with each value tagged by type (``1 == 1.0 == True``)."""
    return [tuple((type(v).__name__, v) for v in row) for row in rows]


# -- the property: random batches store the same rows ---------------------

#: table -> (columns with declared types, primary key)
_TABLES = {
    "plain": ([("i", "INTEGER"), ("r", "REAL"), ("t", "TEXT")], None),
    "ikey": ([("k", "INTEGER"), ("r", "REAL"), ("t", "TEXT")], "k"),
    "tkey": ([("k", "TEXT"), ("i", "INTEGER"), ("r", "REAL")], "k"),
}

#: cells covering the affinity edge cases: bool, datetime, numeric
#: strings, ints into REAL, integral floats into INTEGER
_CELLS = st.one_of(
    st.none(), st.booleans(), st.integers(-50, 50),
    st.sampled_from([0.5, 2.0, -1.25, 3.0, 1000.0]),
    st.sampled_from(["7", "-3", "2.5", "1e2", "007", "abc", ""]),
    st.just(datetime(2024, 1, 2, 3, 4, 5)),
)
#: INTEGER PRIMARY KEY values: in and out of order, duplicates, NULL,
#: the convertible non-ints and two that SQLite rejects
_INT_KEYS = st.one_of(st.integers(-5, 30), st.none(),
                      st.sampled_from([4.0, True, "12", 2.5, "x"]))
_TEXT_KEYS = st.one_of(st.sampled_from(list("abcdef")), st.none(),
                       st.integers(0, 5))


def _dump(db):
    return {name: _typed(db.fetchall(
        f"SELECT rowid, * FROM {name} ORDER BY rowid"))
        for name in _TABLES}


def _keys(data, table, n, dump):
    """``n`` key values for ``table``: a run past its last row (the
    column-wise append), the same run with one key that meets a stored
    row, or a random mix."""
    stored = [row[1][1] for row in dump[table] if row[1][1] is not None]
    mode = data.draw(st.sampled_from(["append", "boundary", "random"]),
                     label="keys")
    if mode == "random":
        keys = _INT_KEYS if table == "ikey" else _TEXT_KEYS
        return data.draw(st.lists(keys, min_size=n, max_size=n))
    if table == "ikey":
        start = max(stored, default=0) + 1
        if mode == "boundary":
            start -= data.draw(st.integers(1, 2))
        return list(range(start, start + n))
    keys = [f"z{len(dump[table])}_{i}" for i in range(n)]
    if mode == "boundary" and keys and stored:
        keys[data.draw(st.integers(0, n - 1))] = data.draw(
            st.sampled_from(stored))
    return keys


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_random_values_batches_store_what_sqlite_stores(data):
    dbs = _databases()
    for db in dbs.values():
        for name, (columns, key) in _TABLES.items():
            db.create_table(name, columns, primary_key=key)
        db.commit()
    committed = {backend: _dump(db) for backend, db in dbs.items()}
    for _step in range(data.draw(st.integers(1, 6), label="steps")):
        table = data.draw(st.sampled_from(sorted(_TABLES)), label="table")
        columns, key = _TABLES[table]
        names = [c for c, _ in columns]
        upsert = key is not None and data.draw(st.booleans(),
                                                label="upsert")
        if not upsert and data.draw(st.booleans(), label="subset"):
            names = names[:-1]
        n = data.draw(st.integers(0, 8), label="n")
        rows = [list(data.draw(st.tuples(*[_CELLS] * len(names)),
                               label="row")) for _ in range(n)]
        if key is not None:
            for row, value in zip(rows, _keys(data, table, n,
                                              committed["sqlite"])):
                row[0] = value
        sql = (f"INSERT INTO {table} ({', '.join(names)}) VALUES "
               f"({', '.join('?' * len(names))})")
        if upsert:
            sql += (f" ON CONFLICT({key}) DO UPDATE SET "
                    f"{names[1]}=excluded.{names[1]}")
        outcomes = {}
        for backend, db in dbs.items():
            view = MetricsView()
            outcome = _outcome(lambda: db.executemany(sql, rows))
            outcomes[backend] = (outcome, _dump(db),
                                 view.counter("db.rows_affected").value)
        assert outcomes["memory"] == outcomes["sqlite"], (sql, rows)
        if data.draw(st.booleans(), label="commit"):
            for db in dbs.values():
                db.commit()
            committed = {backend: _dump(db)
                         for backend, db in dbs.items()}
        else:
            for backend, db in dbs.items():
                db.rollback()
                assert _dump(db) == committed[backend]
    for db in dbs.values():
        db.close()


# -- SQLite parity of single statements, one scenario each ----------------

def _same_everywhere(calls):
    """Run ``calls`` in order on a fresh database per backend; each
    call's outcome must agree."""
    outcomes = {backend: [_outcome(lambda: call(db)) for call in calls]
                for backend, db in _databases().items()}
    assert outcomes["memory"] == outcomes["sqlite"]
    return outcomes["sqlite"]


def test_null_integer_primary_key_takes_the_next_rowid():
    outcome = _same_everywhere([
        lambda db: db.create_table("t", [("a", "INTEGER"), ("b", "TEXT")],
                                   primary_key="a"),
        lambda db: db.execute("INSERT INTO t (a, b) VALUES (NULL, ?)",
                              ("x",)),
        lambda db: db.execute("INSERT INTO t (a, b) VALUES (NULL, ?)",
                              ("y",)),
        lambda db: _typed(db.fetchall("SELECT rowid, a, b FROM t")),
    ])
    assert outcome[-1] == ("ok", _typed([(1, 1, "x"), (2, 2, "y")]))


@pytest.mark.parametrize("params", [(), (1,), (1, "x", 2)])
def test_wrong_binding_count_is_a_database_error(params):
    outcome = _same_everywhere([
        lambda db: db.create_table("t", [("a", "INTEGER"), ("b", "TEXT")]),
        lambda db: db.execute("INSERT INTO t (a, b) VALUES (?, ?)",
                              params),
        lambda db: db.fetchall("SELECT a FROM t WHERE a = ? AND b = ?",
                               params),
        lambda db: db.fetchall("SELECT a, b FROM t"),
    ])
    assert outcome[1][0] == outcome[2][0] == "DatabaseError"
    assert outcome[3] == ("ok", [])


def test_executemany_stores_the_rows_before_a_wrong_binding_count():
    outcome = _same_everywhere([
        lambda db: db.create_table("t", [("a", "INTEGER"), ("b", "TEXT")]),
        lambda db: db.executemany("INSERT INTO t (a, b) VALUES (?, ?)",
                                  [(1, "x"), (2, "y"), (3,), (4, "z")]),
        lambda db: db.fetchall("SELECT a, b FROM t"),
    ])
    assert outcome[1][0] == "DatabaseError"
    assert outcome[2] == ("ok", [(1, "x"), (2, "y")])


def test_executemany_counts_every_row_affected():
    """A 10-row insert_rows and the cache's batched DELETE count all
    their rows, in ``db.rows_affected``, as on SQLite."""
    def affected(call):
        def counted(db):
            view = MetricsView()
            call(db)
            return view.counter("db.rows_affected").value
        return counted
    outcome = _same_everywhere([
        lambda db: db.create_table("t", [("k", "TEXT"), ("v", "INTEGER")]),
        affected(lambda db: db.insert_rows(
            "t", ["k", "v"], [(f"k{i % 4}", i) for i in range(10)])),
        affected(lambda db: db.executemany(
            "DELETE FROM t WHERE k=?", [("k0",), ("k1",), ("nope",)])),
    ])
    assert outcome[1:] == [("ok", 10), ("ok", 6)]


# -- exact counts -----------------------------------------------------------

def test_plain_executemany_is_one_append(monkeypatch):
    """An n-row batch compiles its VALUES once and records one undo
    entry."""
    compiled: list[int] = []
    real = memory_backend._compile_values

    def counting(exprs):
        compiled.append(len(exprs))
        return real(exprs)
    monkeypatch.setattr(memory_backend, "_compile_values", counting)
    db = make_server("memory").create_database("append")
    db.create_table("t", [("k", "INTEGER"), ("v", "REAL")],
                    primary_key="k")
    db.commit()
    db.insert_rows("t", ["k", "v"], [(i, i / 2) for i in range(1, 201)])
    assert compiled == [2]
    assert len(db._undo) == 1
    assert db.fetchone("SELECT COUNT(*), MAX(k) FROM t") == (200, 200)
    db.rollback()
    assert db.fetchone("SELECT COUNT(*) FROM t") == (0,)


def _reimported(server):
    """An experiment that imported file ``same.sum`` (checksum
    ``sum1``) twice and deleted the first of those runs: two
    ``pb_run_files`` rows match the checksum, one of an inactive run."""
    exp = make_simple_experiment(server)
    for i in range(3):
        run = RunData(once={"technique": "t", "fs": "ufs"},
                      datasets=[{"S_chunk": 1, "access": "read",
                                 "bw": float(i)}],
                      source_files=["same.sum"])
        run.file_checksums = {"same.sum": f"sum{min(i, 1)}"}
        exp.store_run(run)
    exp.delete_run(exp.run_indices()[1])
    return exp


def test_find_import_probes_each_matching_file_row(monkeypatch):
    """``find_import`` probes ``pb_runs`` once per matching file row and
    never hashes it, and finds what SQLite finds."""
    found = run_differential(lambda server, backend: (
        lambda exp: (exp.store.find_import("sum1"), exp.run_indices()))(
            _reimported(server)))["sqlite"]
    assert found[0] == found[1][-1]

    exp = _reimported(make_server("memory"))
    expected = exp.run_indices()[-1]
    probes: list = []
    real = memory_backend._Table.pk_position

    def probe(table, value):
        probes.append(table.name)
        return real(table, value)

    def no_hash_join(left_keys, right_keys):
        raise AssertionError("pb_runs was hashed")
    monkeypatch.setattr(memory_backend._Table, "pk_position", probe)
    monkeypatch.setattr(memory_backend, "_hash_join", no_hash_join)
    assert exp.store.find_import("sum1") == expected
    assert probes == ["pb_runs", "pb_runs"]
