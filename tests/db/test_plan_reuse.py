"""Plan reuse of the columnar engine.

SELECTs that differ only in their table names, ``?`` positions and
derived ``UNION ALL``s run one compiled plan, stored under their shape
and their tables' layouts: the operands of a compound, the per-run
statements of a source, and one text run again.  Consecutive operands
of one plan that reads a row at a time run it once, as one batch over
all their rows.  The exact counts of ``db.plans_compiled`` and
``db.operand_batches`` pin that reuse and that batching; the
differential cases (marked ``diffdb``) pin that a shared plan, run per
operand or per batch, answers every SELECT as SQLite does, where
layouts, qualifiers, parameters or the schema differ.
"""

import math

import pytest

from repro import Experiment
from repro.core.errors import DatabaseError
from repro.db import MemoryDatabase, MemoryDatabaseServer, SQLiteDatabase
from repro.db import memory_backend
from repro.obs.metrics import REGISTRY
from repro.parse import Importer
from repro.workloads.beffio import generate_campaign
from repro.workloads.beffio_assets import (experiment_xml, fig8_query_xml,
                                           input_xml, stddev_query_xml)
from repro.xmlio import (parse_experiment_xml, parse_input_xml,
                         parse_query_xml)


@pytest.fixture(autouse=True)
def fresh_parses():
    """Plans live in the parse cache: start every test without any."""
    memory_backend._PARSE_CACHE.clear()
    yield
    memory_backend._PARSE_CACHE.clear()


def compiled(fn, *args, **kwargs) -> int:
    """How many operand plans ``fn(*args, **kwargs)`` compiled."""
    before = REGISTRY.values().get("db.plans_compiled", 0)
    fn(*args, **kwargs)
    return REGISTRY.values().get("db.plans_compiled", 0) - before


def batches(fn, *args, **kwargs) -> int:
    """How many operand batches ``fn(*args, **kwargs)`` ran."""
    before = REGISTRY.values().get("db.operand_batches", 0)
    fn(*args, **kwargs)
    return REGISTRY.values().get("db.operand_batches", 0) - before


def run_tables(db, n: int, extra: range = range(0)) -> None:
    """``n`` run-like tables ``r0 .. r{n-1}`` of three rows each; the
    tables numbered in ``extra`` get one more column."""
    for i in range(n):
        db.create_table(f"r{i}", [("dataset_index", "INTEGER"),
                                  ("x", "REAL")],
                        primary_key="dataset_index")
        db.insert_rows(f"r{i}", ["dataset_index", "x"],
                       [(d, i + d / 4) for d in range(3)])
        if i in extra:
            db.execute(f"ALTER TABLE r{i} ADD COLUMN y INTEGER")
    db.commit()


def union(n: int) -> tuple[str, list]:
    """A source-like compound over ``r0 .. r{n-1}``: the run position
    bound, data-set values from the run's own table."""
    sql = " UNION ALL ".join(
        f'SELECT ? AS "run", "x" AS "x" FROM "r{i}" WHERE "x" > ?'
        for i in range(n))
    params = [value for i in range(n) for value in (i, i + 0.3)]
    return sql, params


class TestPlanCounts:
    def test_200_operands_compile_one_plan_once(self):
        db = MemoryDatabase("plans")
        run_tables(db, 200)
        db.execute('CREATE TEMPORARY TABLE out ("run" INTEGER, "x" REAL)')
        sql, params = union(200)
        insert = f"INSERT INTO out {sql}"
        assert compiled(db.execute, insert, params) == 1
        assert compiled(db.execute, insert, params) == 0
        assert db.fetchall("SELECT run, x FROM out") == [
            (i, i + 0.5) for i in range(200)] * 2

    def test_two_layouts_compile_two_plans(self):
        db = MemoryDatabase("plans")
        run_tables(db, 10, extra=range(0, 10, 2))
        sql, params = union(10)
        assert compiled(db.fetchall, sql, params) == 2
        assert compiled(db.fetchall, sql, params) == 0

    def test_statement_outside_a_compound_compiles_once(self):
        db = MemoryDatabase("plans")
        run_tables(db, 1)
        assert compiled(db.fetchall, 'SELECT x FROM "r0"') == 1
        assert compiled(db.fetchall, 'SELECT x FROM "r0"') == 0

    def test_200_per_run_statements_compile_one_plan(self):
        sqlite, memory = SQLiteDatabase(":memory:"), MemoryDatabase("plans")
        for db in (sqlite, memory):
            run_tables(db, 200)
        statements = [(f'SELECT ? AS "run", "x" AS "x" FROM "r{i}" '
                       f'WHERE "x" > ?', (i, i + 0.3)) for i in range(200)]

        def run_all(db):
            return [_typed(db.fetchall(sql, params))
                    for sql, params in statements]
        expected = run_all(sqlite)
        before = REGISTRY.values().get("db.plans_compiled", 0)
        assert run_all(memory) == expected
        assert run_all(memory) == expected
        assert REGISTRY.values().get("db.plans_compiled", 0) - before == 1

    def test_added_column_gets_a_plan_of_its_own(self):
        sqlite, memory = SQLiteDatabase(":memory:"), MemoryDatabase("plans")
        for db in (sqlite, memory):
            run_tables(db, 2)
        sql = 'SELECT * FROM "r0" WHERE "x" > ?'
        assert compiled(same, (sqlite, memory), sql, (0.2,), times=1) == 1
        for db in (sqlite, memory):
            db.execute('ALTER TABLE "r0" ADD COLUMN "y" TEXT')
            db.execute('UPDATE "r0" SET "y" = CAST("x" AS TEXT)')
            db.commit()
        assert compiled(same, (sqlite, memory), sql, (0.2,), times=1) == 1
        assert compiled(same, (sqlite, memory), sql, (0.2,), times=1) == 0
        # the table left unaltered keeps the first layout's plan
        assert compiled(same, (sqlite, memory),
                        'SELECT * FROM "r1" WHERE "x" > ?', (0.2,)) == 0

    def test_operands_of_one_plan_run_as_one_batch(self):
        db = MemoryDatabase("plans")
        run_tables(db, 200)
        sql, params = union(200)
        assert batches(db.fetchall, sql, params) == 1
        assert db.fetchall(sql, params) == [(i, i + 0.5)
                                            for i in range(200)]

    def test_alternating_layouts_run_one_batch_per_operand(self):
        db = MemoryDatabase("plans")
        run_tables(db, 10, extra=range(0, 10, 2))
        sql, params = union(10)
        assert batches(db.fetchall, sql, params) == 10
        assert db.fetchall(sql, params) == [(i, i + 0.5)
                                            for i in range(10)]

    def test_a_change_of_layout_ends_a_batch(self):
        db = MemoryDatabase("plans")
        run_tables(db, 10, extra=range(4, 7))
        sql, params = union(10)
        assert batches(db.fetchall, sql, params) == 3
        assert db.fetchall(sql, params) == [(i, i + 0.5)
                                            for i in range(10)]

    def test_operand_with_limit_runs_once_per_operand(self):
        db = MemoryDatabase("plans")
        run_tables(db, 6)
        sql = " UNION ALL ".join(
            f'SELECT d.x FROM (SELECT "x" AS x FROM "r{i}" LIMIT 1) d'
            for i in range(6))
        assert batches(db.fetchall, sql) == 6
        assert db.fetchall(sql) == [(float(i),) for i in range(6)]

    def test_relayout_compiles_again(self):
        db = MemoryDatabase("plans")
        run_tables(db, 4)
        sql, params = union(4)
        assert compiled(db.fetchall, sql, params) == 1
        db.execute('ALTER TABLE "r2" ADD COLUMN z TEXT')
        assert compiled(db.fetchall, sql, params) == 1
        assert compiled(db.fetchall, sql, params) == 0


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """An 800-run b_eff_io experiment on the columnar engine."""
    directory = tmp_path_factory.mktemp("campaign")
    paths = []
    for name, content in generate_campaign(
            techniques=("listbased", "listless"), filesystems=("ufs", "nfs"),
            proc_counts=(4, 8, 16, 32), repetitions=50, seed=1):
        path = directory / name
        path.write_text(content)
        paths.append(str(path))
    definition = parse_experiment_xml(experiment_xml())
    experiment = Experiment.create(MemoryDatabaseServer(), definition.name,
                                   list(definition.variables),
                                   definition.info)
    importer = Importer(experiment, parse_input_xml(input_xml()))
    for i in range(0, len(paths), 8):
        importer.import_files(paths[i:i + 8])
    assert experiment.n_runs() == 800
    yield experiment
    experiment.close()


class TestFusedQueries:
    def test_rerun_fused_fig8_compiles_no_plan(self, campaign):
        query = parse_query_xml(fig8_query_xml("read", "ufs"))
        first = query.execute(campaign, pushdown=True)
        assert compiled(query.execute, campaign, pushdown=True) == 0
        memory_backend._PARSE_CACHE.clear()
        # the run selection, the fused INSERT .. SELECT, one operand
        # plan shared by both 200-run sources, and the result's SELECT
        assert compiled(query.execute, campaign, pushdown=True) == 4
        again = query.execute(campaign, pushdown=True)
        assert [(a.name, a.content) for a in again.artifacts] == [
            (a.name, a.content) for a in first.artifacts]

    def test_rerun_fused_stddev_compiles_no_plan(self, campaign):
        query = parse_query_xml(stddev_query_xml("listless", "ufs"))
        # the run selection, the fused INSERT .. SELECT, the operands'
        # plan and the result's SELECT
        assert compiled(query.execute, campaign, pushdown=True) == 4
        assert compiled(query.execute, campaign, pushdown=True) == 0
        # another text of the same shapes: a source over other runs
        other = parse_query_xml(stddev_query_xml("listbased", "nfs"))
        assert compiled(other.execute, campaign, pushdown=True) == 0

    def test_fused_sources_run_one_batch_each(self, campaign):
        # fig8's two 200-run sources, stddev's one
        fig8 = parse_query_xml(fig8_query_xml("read", "ufs"))
        assert batches(fig8.execute, campaign, pushdown=True) == 2
        stddev = parse_query_xml(stddev_query_xml("listless", "ufs"))
        assert batches(stddev.execute, campaign, pushdown=True) == 1


# -- differential cases ------------------------------------------------------

def _typed(rows):
    return [tuple((type(c).__name__, c) for c in row) for row in rows]


def _outcome(db, sql, params=()):
    try:
        return _typed(db.fetchall(sql, params))
    except DatabaseError:
        return "error"


@pytest.fixture
def dbs():
    pair = (SQLiteDatabase(":memory:"), MemoryDatabase("plans"))
    for db in pair:
        for name in ("t1", "t2", "t3"):
            db.create_table(name, [("k", "INTEGER"), ("x", "REAL"),
                                   ("s", "TEXT")])
        db.insert_rows("t1", ["k", "x", "s"],
                       [(1, 1.5, "a"), (2, None, "b"), (3, 3.0, None)])
        db.insert_rows("t2", ["k", "x", "s"],
                       [(4, 0.5, "c"), (5, 5.0, "a"), (None, 2.5, "d")])
        db.insert_rows("t3", ["k", "x", "s"], [(7, 7.25, "e")])
        db.commit()
    yield pair
    for db in pair:
        db.close()


def same(dbs, sql, params=(), *, times: int = 2):
    """Run ``sql`` ``times`` times on both backends: identical typed rows
    or an error on both, every time.  Returns the SQLite outcome."""
    sqlite, memory = dbs
    for _ in range(times):
        expected = _outcome(sqlite, sql, params)
        assert _outcome(memory, sql, params) == expected, sql
    return expected


def each(dbs, sql: str) -> None:
    for db in dbs:
        db.execute(sql)
        db.commit()


@pytest.mark.diffdb
class TestSharedPlanParity:
    def test_operands_with_different_columns(self, dbs):
        each(dbs, "ALTER TABLE t2 ADD COLUMN z INTEGER")
        each(dbs, "UPDATE t2 SET z = k * 10")
        assert same(dbs, "SELECT k, x FROM t1 UNION ALL SELECT k, x FROM t2 "
                         "UNION ALL SELECT k, x FROM t3") != "error"
        assert same(dbs, "SELECT * FROM t1 UNION ALL SELECT * FROM t3") \
            != "error"
        assert same(dbs, "SELECT * FROM t1 UNION ALL SELECT * FROM t2") \
            == "error"
        assert same(dbs, "SELECT z FROM t2 UNION ALL SELECT z FROM t1") \
            == "error"
        assert same(dbs, "SELECT z FROM t1 UNION ALL SELECT z FROM t2") \
            == "error"
        assert same(dbs, "SELECT rowid, s FROM t2 UNION ALL "
                         "SELECT rowid, s FROM t1") != "error"

    def test_columns_in_another_order(self, dbs):
        for db in dbs:
            db.create_table("u", [("s", "TEXT"), ("x", "REAL"),
                                  ("k", "INTEGER")])
            db.insert_rows("u", ["s", "x", "k"], [("u", 9.5, 9)])
        assert same(dbs, "SELECT * FROM t1 UNION ALL SELECT * FROM u "
                         "UNION ALL SELECT * FROM t3") != "error"
        assert same(dbs, "SELECT k, s FROM t1 UNION ALL SELECT k, s FROM u"
                    ) != "error"

    def test_qualifier_naming_the_operands_own_table(self, dbs):
        assert same(dbs, "SELECT t1.k, t1.s FROM t1 WHERE t1.x > 1.0 "
                         "UNION ALL SELECT t2.k, t2.s FROM t2 "
                         "WHERE t2.x > 1.0") != "error"
        assert same(dbs, "SELECT a.k FROM t1 a UNION ALL "
                         "SELECT a.k FROM t2 a") != "error"

    def test_qualifier_naming_another_table(self, dbs):
        assert same(dbs, "SELECT t1.k FROM t1 UNION ALL "
                         "SELECT t1.k FROM t2") == "error"
        assert same(dbs, "SELECT t2.k FROM t1 UNION ALL "
                         "SELECT t2.k FROM t2") == "error"
        assert same(dbs, "SELECT k FROM t1 UNION ALL "
                         "SELECT k FROM t2 WHERE t1.x > 0") == "error"

    def test_aliases_that_are_table_names(self, dbs):
        # one shape: the aliases rename as the tables do
        for a, b in (("t1", "t2"), ("t2", "t3"), ("t3", "t1")):
            assert same(dbs, f"SELECT {b}.k, {a}.x FROM {a} {b} "
                             f"JOIN {b} {a} ON {b}.s = {a}.s") != "error"
        # a table aliased is no longer known by its own name, so these
        # two differ once table names are set aside: the first reads
        # its alias t2, the second a table it has renamed
        assert same(dbs, "SELECT t2.k FROM t1 t2 JOIN t2 b ON t2.s = b.s") \
            != "error"
        assert same(dbs, "SELECT t3.k FROM t1 t2 JOIN t3 b ON t3.s = b.s") \
            == "error"
        assert same(dbs, "SELECT t1.k FROM t1 a") == "error"
        assert same(dbs, "SELECT t2.* FROM t1 JOIN t2 b ON t1.s = b.s") \
            == "error"
        assert same(dbs, "SELECT t2.k FROM t1 t2 UNION ALL "
                         "SELECT t3.k FROM t2 t3 UNION ALL "
                         "SELECT t2.k FROM t3 t2") != "error"
        assert same(dbs, "SELECT t2.k FROM (SELECT k AS k FROM t1) t2 "
                         "UNION ALL SELECT t1.k FROM (SELECT k AS k "
                         "FROM t2) t1") != "error"

    def test_parameters_in_different_positions(self, dbs):
        assert same(dbs,
                    "SELECT ? AS c, k FROM t1 WHERE k IN (?, ?) "
                    "UNION ALL SELECT ? AS c, k FROM t2 WHERE k IN (?, ?) "
                    "UNION ALL SELECT k, ? AS c FROM t3 WHERE x > ?",
                    ("p", 1, 3, "q", 5, 4, "r", 1.0)) != "error"
        assert same(dbs,
                    "SELECT k, ? AS c FROM t1 WHERE s IN (?) "
                    "UNION ALL SELECT k, ? AS c FROM t2 WHERE s IN (?, ?)",
                    (1, "a", 2.5, "a", "c")) != "error"
        assert same(dbs,
                    "SELECT d.k FROM (SELECT k AS k FROM t1 WHERE k > ? "
                    "ORDER BY k LIMIT ?) d UNION ALL SELECT d.k FROM "
                    "(SELECT k AS k FROM t2 WHERE k > ? ORDER BY k "
                    "LIMIT ?) d", (0, 2, 0, 1)) != "error"

    def test_parameters_around_a_derived_union(self, dbs):
        inner = ("SELECT k AS k, ? AS p FROM t1 WHERE k > ? UNION ALL "
                 "SELECT k AS k, ? AS p FROM t2 WHERE k > ?")
        for sql, params in (
                (f"SELECT ? AS c, d.k, d.p FROM ({inner}) d WHERE d.k < ?",
                 ("c", "p1", 1, "p2", 4, 9)),
                (f"SELECT d.k, ? AS c, d.p FROM ({inner}) d WHERE d.k < ?",
                 ("c", "q1", 0, "q2", 0, 5)),
                (f"SELECT ? AS c, d.k FROM (SELECT ? AS x, e.k AS k FROM "
                 f"({inner}) e) d", (7, 8, "r1", 2, "r2", 4))):
            assert same(dbs, sql, params) != "error"

    def test_derived_table_operands(self, dbs):
        assert same(dbs,
                    "SELECT d.s, d.n FROM (SELECT s AS s, k + 1 AS n "
                    "FROM t1 WHERE x IS NOT NULL) d UNION ALL "
                    "SELECT d.s, d.n FROM (SELECT s AS s, k + 1 AS n "
                    "FROM t2 WHERE x IS NOT NULL) d") != "error"
        assert same(dbs,
                    "SELECT d.k, e.s FROM (SELECT k AS k FROM t1) d JOIN "
                    "(SELECT k AS k, s AS s FROM t2) e ON d.k = e.k "
                    "UNION ALL SELECT k, s FROM t3") != "error"
        assert same(dbs,
                    "SELECT d.k FROM (SELECT k AS k FROM t1 UNION ALL "
                    "SELECT k AS k FROM t2) d UNION ALL "
                    "SELECT d.k FROM (SELECT k AS k FROM t3 UNION ALL "
                    "SELECT k AS k FROM t1) d") != "error"

    def test_rerun_after_drop_and_create_with_another_layout(self, dbs):
        sql = "SELECT * FROM t1 UNION ALL SELECT * FROM t2"
        assert same(dbs, sql) != "error"
        for name in ("t1", "t2"):
            each(dbs, f"DROP TABLE {name}")
            for db in dbs:
                db.create_table(name, [("s", "TEXT"), ("k", "REAL")])
                db.insert_rows(name, ["s", "k"], [(name, 1), ("z", 2.5)])
                db.commit()
        assert same(dbs, sql) != "error"
        each(dbs, "DROP TABLE t2")
        assert same(dbs, sql) == "error"

    def test_no_such_column_raises_on_every_execution(self, dbs):
        assert same(dbs, "SELECT k FROM t1 UNION ALL SELECT nope FROM t2",
                    times=3) == "error"
        assert same(dbs, "SELECT nope FROM t1 UNION ALL SELECT nope FROM t2",
                    times=3) == "error"
        sql = "SELECT z FROM t1 UNION ALL SELECT z FROM t2"
        each(dbs, "ALTER TABLE t1 ADD COLUMN z INTEGER")
        each(dbs, "ALTER TABLE t2 ADD COLUMN z INTEGER")
        assert same(dbs, sql) != "error"
        each(dbs, "ALTER TABLE t1 DROP COLUMN z")
        assert same(dbs, sql, times=3) == "error"

    # -- operands run as one batch ------------------------------------------

    @staticmethod
    def compound(operand: str, tables=("t1", "t2", "t3")) -> str:
        return " UNION ALL ".join(operand.format(t=t) for t in tables)

    def test_batched_operands_read_their_own_parameters(self, dbs):
        sql = self.compound("SELECT ? AS c, k, x FROM {t} WHERE x > ?")
        assert same(dbs, sql, ("p", 1.0, "q", 0.0, "r", 7.0)) != "error"
        sql = self.compound("SELECT k, ? AS c FROM {t} WHERE k IN (?, ?)")
        assert same(dbs, sql, (1, 1, 3, 2, 5, None, 3, 7, 7)) != "error"
        sql = self.compound("SELECT k + ? AS c, s FROM {t} "
                            "WHERE s = ? OR x < ?")
        assert same(dbs, sql, (1, "a", 2.0, 2, "d", 0.0, 3, "z", 9.0)) \
            != "error"

    def test_one_parameter_shared_and_one_varying(self, dbs):
        sql = self.compound("SELECT ? AS run, k, x FROM {t} WHERE s = ?")
        assert same(dbs, sql, (0, "a", 1, "a", 2, "a")) != "error"
        assert same(dbs, sql, (0, "a", 1, "c", 2, "e")) != "error"
        assert same(dbs, sql, (0, None, 1, None, 2, None)) == []
        assert same(dbs, sql, (0, None, 1, "a", 2, None)) != "error"
        # equal values of another type are not one value
        sql = self.compound("SELECT ? AS v, k FROM {t} WHERE ? > 0")
        assert same(dbs, sql, (1, 1, 1.0, 1.0, 1, 1)) != "error"
        assert same(dbs, sql, ("1", 1, 1, 1, 1.0, 1)) != "error"

    def test_zeros_of_either_sign_are_not_one_value(self, dbs):
        sql = self.compound("SELECT ? AS v FROM {t}", ("t1", "t2"))
        signs = [[math.copysign(1.0, v) for (v,) in db.fetchall(
            sql, (0.0, -0.0))] for db in dbs]
        assert signs[0] == signs[1] == [1.0] * 3 + [-1.0] * 3

    def test_operands_keeping_no_rows_and_empty_tables(self, dbs):
        for db in dbs:
            db.create_table("t4", [("k", "INTEGER"), ("x", "REAL"),
                                   ("s", "TEXT")])
            db.commit()
        tables = ("t4", "t1", "t4", "t2", "t3", "t4")
        sql = self.compound("SELECT ? AS run, k, s FROM {t} WHERE x > ?",
                            tables)
        assert same(dbs, sql, (0, 0, 1, 2.0, 2, 0, 3, 99.0, 4, 0, 5, 0)) \
            != "error"
        assert same(dbs, sql, [v for i in range(6) for v in (i, 99.0)]) \
            == []
        assert same(dbs, self.compound("SELECT * FROM {t}",
                                       ("t4", "t4"))) == []

    def test_rowids_nulls_and_star(self, dbs):
        assert same(dbs, self.compound("SELECT rowid, * FROM {t}")) \
            != "error"
        assert same(dbs, self.compound("SELECT * FROM {t} WHERE rowid > 1")
                    ) != "error"
        assert same(dbs, self.compound(
            "SELECT k, x IS NULL, s FROM {t} WHERE s = ? OR x IS NULL"),
            ("a", None, "d")) != "error"
        assert same(dbs, self.compound(
            "SELECT k, x FROM {t} WHERE NOT (k IS NULL AND s IS NULL) "
            "AND x = ?"), (None, 0.5, 7.25)) != "error"
        assert same(dbs, self.compound(
            "SELECT k * ? AS y, COALESCE(s, ?) AS s FROM {t}"),
            (None, "n", 2, None, 3, "m")) != "error"

    def test_integer_and_real_literals_are_different_shapes(self, dbs):
        assert same(dbs, "SELECT k, 1 AS c FROM t1 UNION ALL "
                         "SELECT k, 1.0 AS c FROM t2 UNION ALL "
                         "SELECT k, 1 AS c FROM t3") != "error"
        assert same(dbs, "SELECT k / 2 AS c FROM t1 UNION ALL "
                         "SELECT k / 2.0 AS c FROM t2 UNION ALL "
                         "SELECT k / 2 AS c FROM t3") != "error"

    def test_operands_that_do_not_batch_keep_their_own_results(self, dbs):
        for operand in (
                "SELECT DISTINCT s FROM {t}",
                "SELECT s, COUNT(*) AS n FROM {t} GROUP BY s",
                "SELECT MAX(x) AS m, COUNT(k) AS n FROM {t}",
                "SELECT d.k FROM (SELECT k AS k FROM {t} "
                "ORDER BY k DESC LIMIT 1) d",
                "SELECT d.k FROM (SELECT k AS k FROM {t} LIMIT 1) d",
                "SELECT a.k, b.s FROM {t} a JOIN t1 b ON a.s = b.s"):
            assert same(dbs, self.compound(operand)) != "error", operand

    def test_bool_parameters_read_as_integers(self, dbs):
        assert same(dbs, "SELECT ? AS v, k FROM t1 WHERE k < 3", (True,)) \
            == [(("int", 1), ("int", 1)), (("int", 1), ("int", 2))]
        assert same(dbs, "SELECT CAST(? AS TEXT), k + ?, COALESCE(?, 7) "
                         "FROM t3", (True, False, False)) \
            == [(("str", "1"), ("int", 7), ("int", 0))]
        assert same(dbs, "SELECT k FROM t1 WHERE s LIKE ? OR k = ?",
                    (True, True)) == [(("int", 1),)]
        sql = self.compound("SELECT ? AS v, k FROM {t} WHERE ?")
        assert same(dbs, sql, (True, True, False, True, True, False)) \
            != "error"
        assert same(dbs, sql, (True, True, True, True, True, True)) \
            != "error"
        assert same(dbs, f"SELECT MAX(d.v), SUM(d.v) FROM ({sql}) d",
                    (True, True, False, True, 1, True)) != "error"

    def test_aggregates_over_a_batch_see_operand_order(self, dbs):
        inner = self.compound("SELECT s AS s, x AS x, ? AS r FROM {t}",
                              ("t1", "t2", "t3", "t2"))
        sql = (f"SELECT d.r, SUM(d.x), AVG(d.x), MIN(d.x), MAX(d.x), "
               f"COUNT(*), pb_stddev(d.x) FROM ({inner}) d GROUP BY d.r")
        assert same(dbs, sql, (0, 1, 0, 1)) != "error"
        ties = ("SELECT MAX(d.v), MIN(d.v) FROM (SELECT ? AS v FROM t3 "
                "UNION ALL SELECT ? AS v FROM t3) d")
        assert same(dbs, ties, (1, 1.0)) == [(("int", 1), ("int", 1))]
        assert same(dbs, ties, (1.0, 1)) == [(("float", 1.0),
                                             ("float", 1.0))]


def test_threads_on_separate_databases_compile_one_plan():
    """Parsed statements are shared by every database of the process:
    eight threads running one compound on their own databases compile
    its plan once, and each reads its own tables."""
    import sys
    import threading

    sql, params = union(20)
    dbs = [MemoryDatabase(f"plans{i}") for i in range(8)]
    for db in dbs:
        run_tables(db, 20)
    barrier = threading.Barrier(len(dbs))
    results, errors = {}, []

    def worker(i):
        try:
            barrier.wait(timeout=10)
            results[i] = [dbs[i].fetchall(sql, params) for _ in range(5)]
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        before = REGISTRY.values().get("db.plans_compiled", 0)
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(dbs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    assert REGISTRY.values().get("db.plans_compiled", 0) - before == 1
    expected = [(i, i + 0.5) for i in range(20)]
    assert all(runs == [expected] * 5 for runs in results.values())
    assert len(results) == len(dbs)


@pytest.mark.diffdb
class TestKeptBatches:
    """The columnar engine keeps a ``UNION ALL``'s batches and the
    columns joined into them on its database.  Every write to a
    batched table, every CREATE, DROP and ALTER, and the undo of each,
    must void them: one compound text, run again after each change,
    answers as SQLite does.  Unchanged tables are joined once."""

    SQL = TestSharedPlanParity.compound(
        "SELECT ? AS run, k, x, s FROM {t} WHERE x > ?")
    PARAMS = (0, 0.0, 1, 0.0, 2, 0.0)

    def rerun(self, dbs):
        assert same(dbs, self.SQL, self.PARAMS, times=1) != "error"

    def test_writes_and_their_undo(self, dbs):
        self.rerun(dbs)
        for change in (
                "INSERT INTO t2 (k, x, s) VALUES (6, 6.5, 'f')",
                "UPDATE t1 SET x = x + 10 WHERE k = 1",
                "DELETE FROM t3 WHERE k = 7",
                "DELETE FROM t2",
                "INSERT INTO t3 (k, x, s) VALUES (8, 8.5, 'g')"):
            for db in dbs:
                db.begin()
                db.execute(change)
            self.rerun(dbs)
            for db in dbs:
                db.rollback()
            self.rerun(dbs)
            each(dbs, change)
            self.rerun(dbs)

    def test_drop_and_create_of_one_name(self, dbs):
        self.rerun(dbs)
        for db in dbs:
            db.begin()
            db.execute("DROP TABLE t2")
            db.create_table("t2", [("k", "INTEGER"), ("x", "REAL"),
                                   ("s", "TEXT")])
        self.rerun(dbs)
        for db in dbs:
            db.rollback()
        self.rerun(dbs)
        for db in dbs:
            db.execute("DROP TABLE t2")
            db.create_table("t2", [("k", "INTEGER"), ("x", "REAL"),
                                   ("s", "TEXT")])
            db.insert_rows("t2", ["k", "x", "s"], [(9, 9.5, "h")])
            db.commit()
        self.rerun(dbs)

    def test_rolled_back_create(self, dbs):
        """A compound over a table whose CREATE is rolled back reads a
        table that is gone, as on SQLite."""
        sql = TestSharedPlanParity.compound(
            "SELECT k, x FROM {t}", ("t1", "t2", "t3", "t4"))
        for db in dbs:
            db.begin()
            db.create_table("t4", [("k", "INTEGER"), ("x", "REAL")])
        assert same(dbs, sql, times=1) != "error"
        for db in dbs:
            db.rollback()
        assert same(dbs, sql, times=1) == "error"

    def test_added_and_dropped_columns(self, dbs):
        sql = TestSharedPlanParity.compound("SELECT * FROM {t}")
        assert same(dbs, sql, times=1) != "error"
        for db in dbs:
            db.begin()
            for table in ("t1", "t2", "t3"):
                db.execute(f"ALTER TABLE {table} ADD COLUMN z INTEGER")
        assert same(dbs, sql, times=1) != "error"
        for db in dbs:
            db.rollback()
        assert same(dbs, sql, times=1) != "error"
        for change in ("ALTER TABLE t1 ADD COLUMN z INTEGER",
                       "ALTER TABLE t2 ADD COLUMN z INTEGER",
                       "ALTER TABLE t3 ADD COLUMN z INTEGER",
                       "ALTER TABLE t1 DROP COLUMN z"):
            each(dbs, change)
            assert same(dbs, sql, times=1) is not None

    def test_dropped_and_readded_column(self, dbs):
        """A column the compound reads, dropped and added again with no
        row written, reads NULL, as on SQLite, and the old values come
        back when both ALTERs are rolled back."""
        sql = TestSharedPlanParity.compound("SELECT k, x FROM {t}")
        NULL = ("NoneType", None)
        before = same(dbs, sql, times=1)
        readd = [f"ALTER TABLE {table} {action}"
                 for table in ("t1", "t2", "t3")
                 for action in ("DROP COLUMN x", "ADD COLUMN x REAL")]
        for db in dbs:
            db.begin()
            for change in readd:
                db.execute(change)
        assert {x for _k, x in same(dbs, sql, times=1)} == {NULL}
        for db in dbs:
            db.rollback()
        assert same(dbs, sql, times=1) == before
        for change in readd:
            each(dbs, change)
        assert {x for _k, x in same(dbs, sql, times=1)} == {NULL}

    def test_unchanged_tables_are_joined_once(self, dbs, monkeypatch):
        joined = []
        original = memory_backend._Columns.__missing__

        def missing(self, name):
            joined.append(name)
            return original(self, name)

        monkeypatch.setattr(memory_backend._Columns, "__missing__",
                            missing)
        memory = dbs[1]
        for _ in range(3):
            memory.fetchall(self.SQL, self.PARAMS)
        assert sorted(joined) == ["k", "s", "x"]
        del joined[:]
        memory.execute("INSERT INTO t1 (k, x, s) VALUES (0, 0.5, 'z')")
        memory.commit()
        assert memory.fetchall(self.SQL, self.PARAMS)[:1] == [
            (0, 1, 1.5, "a")]
        assert sorted(joined) == ["k", "s", "x"]

    def test_closing_drops_the_kept_batches(self, dbs):
        memory = dbs[1]
        memory.fetchall(self.SQL, self.PARAMS)
        assert memory._compounds
        memory.close()
        assert not memory._compounds
