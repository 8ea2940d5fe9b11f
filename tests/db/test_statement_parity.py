"""Statement-level parity of the columnar engine with SQLite.

Every construct of the grammar in ``docs/backends.md`` runs on
``SQLiteDatabase(":memory:")`` and on ``MemoryDatabase`` over the same
fixture — NULLs, and int/float/text cells mixed in one untyped column
— and must return identical rows with identical Python types.  Values
are bound in their column's type: the columnar engine applies no
comparison affinity, and perfbase's emitters never rely on it.
"""

import pytest

from repro.db import MemoryDatabase, SQLiteDatabase

pytestmark = pytest.mark.diffdb

#: k INTEGER, v REAL, s TEXT, x untyped (mixed), g TEXT (group key)
T_ROWS = [
    (1, 1.5, "ab", 1, "a"),
    (2, 2, "b", 2.5, "b"),
    (None, 3.25, None, "x1", "a"),
    (3, None, "ac", None, None),
    (2, -1.0, "abc", "y", "b"),
    (0, 0.0, "", -3, "a"),
    (5, 4.5, "b_", 7.0, None),
    (-4, 2.5, "Ab", 4, "c"),
]
#: uk INTEGER, w TEXT
U_ROWS = [(2, "w2"), (1, "w1"), (2, "w2b"), (None, "wn"), (9, "w9")]


def _fixture(db):
    db.create_table("t", [("k", "INTEGER"), ("v", "REAL"), ("s", "TEXT"),
                          ("x", ""), ("g", "TEXT")])
    db.insert_rows("t", ["k", "v", "s", "x", "g"], T_ROWS)
    db.create_table("u", [("uk", "INTEGER"), ("w", "TEXT")])
    db.insert_rows("u", ["uk", "w"], U_ROWS)
    db.create_table("p", [("key", "TEXT PRIMARY KEY"), ("n", "INTEGER")])
    db.insert_rows("p", ["key", "n"], [("a", 1), ("b", 2)])
    db.commit()
    return db


@pytest.fixture
def dbs():
    pair = (_fixture(SQLiteDatabase(":memory:")),
            _fixture(MemoryDatabase("parity")))
    yield pair
    for db in pair:
        db.close()


def _typed(rows):
    return [tuple((type(c).__name__, c) for c in row) for row in rows]


def _same(dbs, sql, params=()):
    sqlite, memory = dbs
    expected = _typed(sqlite.fetchall(sql, params))
    assert _typed(memory.fetchall(sql, params)) == expected, sql
    return expected


#: WHERE expressions over t's columns, every expression kind at least
#: once; (name, condition, params)
CONDITIONS = [
    ("eq", "k = 2", ()),
    ("eq_eq", "k == 2", ()),
    ("ne", "k != 2", ()),
    ("ne_angle", "k <> 2", ()),
    ("lt", "v < 2.0", ()),
    ("le", "v <= 2.0", ()),
    ("gt", "k > 1", ()),
    ("ge", "k >= 2", ()),
    ("param", "k = ?", (2,)),
    ("null_literal", "k = NULL", ()),
    ("is_null", "s IS NULL", ()),
    ("is_not_null", "s IS NOT NULL", ()),
    ("in", "k IN (1, 3, 5)", ()),
    ("in_params", "s IN (?, ?)", ("b", "ac")),
    ("in_with_null", "k IN (1, NULL)", ()),
    ("like_prefix", "s LIKE 'a%'", ()),
    ("like_one", "s LIKE '_b'", ()),
    ("like_case", "s LIKE 'AB'", ()),
    ("not", "NOT (k = 2)", ()),
    ("not_over_null", "NOT (k > 1 AND v > 0.0)", ()),
    ("or", "k = 1 OR s IS NULL", ()),
    ("or_over_null", "k > 2 OR v > 2.0", ()),
    ("not_or", "NOT (k = 1 OR v > 2.0)", ()),
    ("and_or", "(k = 2 OR k = 3) AND s LIKE 'a%'", ()),
    ("guard", "NOT (k IS NULL AND v IS NULL)", ()),
    ("neg", "-k < -1", ()),
    ("add", "k + 1 > 2", ()),
    ("sub", "v - 1 > 0.5", ()),
    ("mul", "k * 2 = 4", ()),
    ("div", "k / 2 = 1", ()),
    ("mod", "k % 2 = 1", ()),
    ("cast", "CAST(v AS INTEGER) = 2", ()),
    ("coalesce", "COALESCE(k, 0) = 0", ()),
    ("mixed_gt", "x > 2", ()),
    ("mixed_text", "x >= 'x'", ()),
    ("truth_column", "k", ()),
    ("truth_constant", "1", ()),
    ("qualified", "t.k >= 2", ()),
]
#: rowid exists on named tables only, and is ambiguous in a join
ROWID = ("rowid", "rowid > 3", ())
ROWID_QUALIFIED = ("rowid_qualified", "t.rowid <= 2", ())


@pytest.mark.parametrize(
    "cond,params", [c[1:] for c in CONDITIONS + [ROWID, ROWID_QUALIFIED]],
    ids=[c[0] for c in CONDITIONS + [ROWID, ROWID_QUALIFIED]])
def test_where_one_table(dbs, cond, params):
    _same(dbs, f"SELECT k, v, s, x FROM t WHERE {cond}", params)


@pytest.mark.parametrize(
    "cond,params", [c[1:] for c in CONDITIONS + [ROWID_QUALIFIED]],
    ids=[c[0] for c in CONDITIONS + [ROWID_QUALIFIED]])
def test_where_join(dbs, cond, params):
    _same(dbs, "SELECT t.k, t.v, u.w FROM t JOIN u ON t.k = u.uk "
               f"WHERE {cond} ORDER BY t.rowid, u.rowid", params)


@pytest.mark.parametrize(
    "cond,params", [c[1:] for c in CONDITIONS if c[0] != "qualified"],
    ids=[c[0] for c in CONDITIONS if c[0] != "qualified"])
def test_where_derived_table(dbs, cond, params):
    _same(dbs, "SELECT k, v, s, x FROM (SELECT k AS k, v AS v, s AS s, "
               f"x AS x FROM t) d WHERE {cond}", params)


#: conditions over both sides of a join
JOIN_CONDITIONS = [
    "w LIKE 'w2%' OR v > 4.0",
    "NOT (u.w = 'w2' AND t.v > 0.0)",
    "t.k + u.uk = 4",
]


@pytest.mark.parametrize("cond", JOIN_CONDITIONS)
def test_where_across_join(dbs, cond):
    _same(dbs, "SELECT t.k, t.s, u.w FROM t JOIN u ON t.k = u.uk "
               f"WHERE {cond} ORDER BY t.rowid, u.rowid")


#: other SELECT constructs: (name, statement, params)
SELECTS = [
    ("star", "SELECT * FROM t", ()),
    ("qualified_star",
     "SELECT u.* FROM t JOIN u ON u.uk = t.k ORDER BY t.rowid, u.rowid",
     ()),
    ("expressions",
     "SELECT k + v, k / 3, k % 3, -v, v * 2, CAST(v AS INTEGER), "
     "CAST(k AS REAL), COALESCE(s, 'none') FROM t", ()),
    ("constants", "SELECT 1, 2.5, 'c', NULL, ?", (7,)),
    ("predicate_is_null",
     "SELECT k IS NULL, k IS NOT NULL, s IS NULL FROM t", ()),
    ("predicate_comparison",
     "SELECT k = 2, v > 2.0, x >= 'x', k = NULL, k IN (1, 3, NULL) "
     "FROM t", ()),
    ("predicate_logic",
     "SELECT k = 1 AND v > 1.0, k = 1 OR s IS NULL, NOT (k > 1), "
     "k > 2 OR v > 2.0 FROM t", ()),
    ("predicate_like", "SELECT s LIKE 'a%', s LIKE '_b' FROM t", ()),
    ("predicate_ordered",
     "SELECT k IS NULL, v = 1.5, k IS NOT NULL FROM t ORDER BY v", ()),
    ("predicate_operand",
     "SELECT CAST(k IS NULL AS TEXT), COALESCE(k = 1, 5), "
     "(k = 2) LIKE '1', (k > 1) + 1 FROM t", ()),
    ("predicate_aggregate",
     "SELECT MAX(k IS NULL), MIN(v > 2.0), SUM(s LIKE 'a%') FROM t",
     ()),
    ("predicate_derived",
     "SELECT d.n, d.k FROM (SELECT k IS NULL AS n, k AS k FROM t) d "
     "WHERE d.n = 0", ()),
    ("rowid", "SELECT rowid, k FROM t", ()),
    ("order_mixed_desc", "SELECT x FROM t ORDER BY x DESC", ()),
    ("order_mixed_asc", "SELECT x, k FROM t ORDER BY x", ()),
    ("order_two_terms", "SELECT k, s FROM t ORDER BY k DESC, s", ()),
    ("order_expression", "SELECT k FROM t ORDER BY -v, rowid", ()),
    ("order_null_first", "SELECT s FROM t ORDER BY s", ()),
    ("distinct", "SELECT DISTINCT k FROM t", ()),
    ("distinct_pairs", "SELECT DISTINCT g, k % 2 FROM t", ()),
    ("limit", "SELECT k FROM t LIMIT 3", ()),
    ("limit_param", "SELECT k FROM t ORDER BY v DESC LIMIT ?", (2,)),
    ("limit_zero", "SELECT k FROM t LIMIT 0", ()),
    ("order_limit", "SELECT s FROM t WHERE s IS NOT NULL "
                    "ORDER BY s LIMIT 1", ()),
    ("group_aggregates",
     "SELECT g, COUNT(*), COUNT(k), SUM(k), SUM(v), AVG(v), MIN(x), "
     "MAX(x), pb_variance(v), pb_stddev(v), pb_median(v), "
     "pb_product(v) FROM t GROUP BY g", ()),
    ("group_two_keys", "SELECT g, k, COUNT(*) FROM t GROUP BY g, k", ()),
    ("group_filtered", "SELECT g, SUM(v) FROM t WHERE k > 0 GROUP BY g",
     ()),
    ("group_derived",
     "SELECT d.g AS g, AVG(d.v) AS a FROM (SELECT g AS g, v AS v "
     "FROM t WHERE v IS NOT NULL) d GROUP BY d.g", ()),
    ("group_ordered", "SELECT g, MAX(k) FROM t GROUP BY g ORDER BY g",
     ()),
    ("aggregate_all",
     "SELECT COUNT(*), COUNT(s), SUM(k), AVG(k), MIN(v), MAX(v), "
     "pb_median(k) FROM t", ()),
    ("aggregate_empty",
     "SELECT COUNT(*), SUM(k), AVG(v), MAX(s), pb_stddev(v), "
     "pb_product(v) FROM t WHERE k > 100", ()),
    ("aggregate_expression", "SELECT COALESCE(MAX(k), -1) + 1 FROM t",
     ()),
    ("aggregate_join",
     "SELECT COUNT(*), SUM(u.uk) FROM t JOIN u ON t.k = u.uk", ()),
    ("union_all",
     "SELECT k, s FROM t WHERE k < 2 UNION ALL SELECT uk, w FROM u "
     "UNION ALL SELECT ?, 'p'", (42,)),
    ("join_chain",
     "SELECT a.k, b.w, c.w FROM t a JOIN u b ON b.uk = a.k "
     "JOIN u c ON c.uk = b.uk AND c.w = b.w "
     "ORDER BY a.rowid, b.rowid, c.rowid", ()),
    ("join_derived",
     "SELECT a.k, b.w FROM (SELECT k AS k FROM t WHERE k > 0) a "
     "JOIN (SELECT uk AS uk, w AS w FROM u) b ON a.k = b.uk", ()),
    ("join_on_rowid",
     "SELECT t.k, u.w FROM t JOIN u ON t.rowid = u.rowid "
     "ORDER BY t.rowid", ()),
    ("join_limit",
     "SELECT t.k FROM t JOIN u ON t.k = u.uk WHERE u.w = ? LIMIT 1",
     ("w2b",)),
]


@pytest.mark.parametrize("sql,params", [s[1:] for s in SELECTS],
                         ids=[s[0] for s in SELECTS])
def test_select(dbs, sql, params):
    _same(dbs, sql, params)


#: DML, each checked by reading back every table it may touch
WRITES = [
    ("update_where", "UPDATE t SET v = v * 2, s = 'z' WHERE k > 1", ()),
    ("update_over_null", "UPDATE t SET k = k + 1 WHERE NOT (v > 1.0)",
     ()),
    ("update_all", "UPDATE t SET x = ?", ("c",)),
    ("update_swap", "UPDATE t SET k = CAST(v AS INTEGER), "
                    "v = k WHERE rowid <= 3", ()),
    ("delete_where", "DELETE FROM t WHERE s IS NULL OR k = 2", ()),
    ("delete_like", "DELETE FROM t WHERE s LIKE ?", ("a%",)),
    ("delete_all", "DELETE FROM t", ()),
    ("upsert_insert",
     "INSERT INTO p (key, n) VALUES (?, ?) "
     "ON CONFLICT(key) DO UPDATE SET n = n + excluded.n", ("c", 5)),
    ("upsert_update",
     "INSERT INTO p (key, n) VALUES (?, ?) "
     "ON CONFLICT(key) DO UPDATE SET n = n + excluded.n", ("a", 5)),
    ("insert_select",
     "INSERT INTO u (uk, w) SELECT k, s FROM t WHERE v > 2.0", ()),
]


@pytest.mark.parametrize("sql,params", [w[1:] for w in WRITES],
                         ids=[w[0] for w in WRITES])
def test_write(dbs, sql, params):
    for db in dbs:
        db.execute(sql, params)
        db.commit()
    _same(dbs, "SELECT rowid, k, v, s, x, g FROM t")
    _same(dbs, "SELECT rowid, uk, w FROM u")
    _same(dbs, "SELECT key, n FROM p")
