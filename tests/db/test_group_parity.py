"""GROUP BY and the aggregates of the columnar engine, bit for bit
against SQLite.

The engine buckets rows one key column at a time, without a key tuple
per row, and runs AVG, SUM, COUNT, ``pb_variance`` and ``pb_stddev``
over a group in one loop each.  Every value here is compared with its
type and, for a float, its exact bits (``float.hex``), so a key merged
differently, a group emitted in another order, a sign of zero or a
last-bit rounding difference fails.
"""

import pytest

from repro.core.errors import DatabaseError
from repro.db import MemoryDatabase, SQLiteDatabase

pytestmark = pytest.mark.diffdb


def _exact(value):
    if isinstance(value, float):
        return ("float", value.hex())
    return (type(value).__name__, value)


def _outcome(db, sql, params=()):
    try:
        return [tuple(map(_exact, row)) for row in db.fetchall(sql, params)]
    except DatabaseError:
        return "error"


@pytest.fixture
def dbs():
    pair = (SQLiteDatabase(":memory:"), MemoryDatabase("groups"))
    yield pair
    for db in pair:
        db.close()


def fill(dbs, rows, columns=("k", "j", "x")):
    """Table ``t`` of untyped columns (no affinity: every value keeps
    its type) holding ``rows``."""
    for db in dbs:
        db.execute("CREATE TABLE t (" + ", ".join(columns) + ")")
        db.insert_rows("t", list(columns), rows)
        db.commit()


def same(dbs, sql, params=()):
    """Identical exact rows on both backends, twice (the second run
    reuses the stored plan); returns them."""
    sqlite, memory = dbs
    expected = _outcome(sqlite, sql, params)
    assert expected != "error", sql
    for _ in range(2):
        assert _outcome(memory, sql, params) == expected, sql
    return expected


KEYS = [1, 1.0, "1", None, -0.0, 0.0, 0, 2, "a", None, 1, -0.0, "1", 2.5]


class TestGroupKeys:
    def test_one_key(self, dbs):
        fill(dbs, [(k, i % 3, float(i)) for i, k in enumerate(KEYS)])
        rows = same(dbs, "SELECT k, COUNT(*), SUM(x), MIN(x) FROM t "
                         "GROUP BY k")
        # 1 and 1.0 are one group, '1' another, the NULLs one, the
        # zeros of either sign one, then 2, 2.5 and 'a'
        assert len(rows) == 7
        same(dbs, "SELECT COUNT(*), k FROM t GROUP BY k")
        same(dbs, "SELECT k, COUNT(*) FROM t WHERE x > ? GROUP BY k", (3.0,))

    def test_first_row_of_a_group_gives_its_bare_key(self, dbs):
        fill(dbs, [(k, 0, 1.0) for k in (-0.0, 0, 0.0, 1.0, 1, "1")])
        same(dbs, "SELECT k, COUNT(*) FROM t GROUP BY k")
        for db in dbs:
            db.execute("DELETE FROM t WHERE k IS NULL OR k = ?", ("1",))
            db.insert_rows("t", ["k", "j", "x"], [(0, 0, 2.0), (-0.0, 1, 3.0)])
            db.commit()
        same(dbs, "SELECT k, j, COUNT(*) FROM t GROUP BY k, j")

    def test_two_keys(self, dbs):
        fill(dbs, [(k, j, float(i)) for i, (k, j) in enumerate(
            (k, j) for j in (None, "b", 1, 1.0, "a", -0.0) for k in KEYS)])
        same(dbs, "SELECT k, j, COUNT(*), SUM(x) FROM t GROUP BY k, j")
        same(dbs, "SELECT j, k, COUNT(*), AVG(x) FROM t GROUP BY j, k")
        same(dbs, "SELECT k, j, COUNT(x) FROM t WHERE j IS NOT NULL "
                  "GROUP BY k, j")

    def test_groups_over_no_rows(self, dbs):
        fill(dbs, [(1, 1, 1.0)])
        assert same(dbs, "SELECT k, COUNT(*) FROM t WHERE x > 9 "
                         "GROUP BY k") == []
        assert same(dbs, "SELECT k, j, SUM(x) FROM t WHERE x > 9 "
                         "GROUP BY k, j") == []

    def test_groups_of_a_derived_union(self, dbs):
        fill(dbs, [(k, i % 2, float(i) / 3) for i, k in enumerate(KEYS)])
        inner = " UNION ALL ".join(
            f"SELECT k AS k, j AS j, x AS x, ? AS r FROM t WHERE j = {j}"
            for j in (0, 1))
        same(dbs, f"SELECT d.k, COUNT(*), SUM(d.x), pb_stddev(d.x) "
                  f"FROM ({inner}) d GROUP BY d.k", (0, 1))
        same(dbs, f"SELECT d.r, d.k, AVG(d.x) FROM ({inner}) d "
                  f"GROUP BY d.r, d.k", (5, 5))


AGGREGATES = ("COUNT(x)", "COUNT(*)", "SUM(x)", "AVG(x)", "pb_variance(x)",
              "pb_stddev(x)")

VALUES = {
    "floats": [0.1, 0.2, 0.3, 1e16, 1.0, -1e16, 2.5e-8, 0.7, 3.3, 1 / 3],
    "ints_then_floats": [1, 2, 3, 0.1, 4, 0.2, 2 ** 40, 0.3],
    "floats_then_ints": [0.1, 1, 0.2, 2, 0.3, 3, -7],
    "ints": [1, 2, 3, 4, 2 ** 53 + 1, -5, 0],
    "numeric_text": ["0.1", "2", 0.2, "3.5", 1, "1e3", -0.5],
    "with_nulls": [None, 0.1, None, 2, 0.2, None, 0.3],
    "only_nulls": [None, None],
    "one_value": [0.1],
}


class TestAggregates:
    @pytest.mark.parametrize("case", sorted(VALUES))
    def test_over_one_group(self, dbs, case):
        fill(dbs, [(0, i, v) for i, v in enumerate(VALUES[case])])
        same(dbs, f"SELECT {', '.join(AGGREGATES)} FROM t")
        same(dbs, f"SELECT k, {', '.join(AGGREGATES)} FROM t GROUP BY k")

    def test_over_many_groups(self, dbs):
        rows = [(name, i, v) for name in sorted(VALUES)
                for i, v in enumerate(VALUES[name])]
        fill(dbs, rows)
        same(dbs, f"SELECT k, {', '.join(AGGREGATES)} FROM t GROUP BY k")
        same(dbs, f"SELECT k, j, {', '.join(AGGREGATES)} FROM t "
                  f"GROUP BY k, j")
        same(dbs, f"SELECT {', '.join(AGGREGATES)} FROM t WHERE x > ?",
             (0.15,))
