"""In-memory columnar storage backend.

The second :class:`~repro.db.backend.Database` implementation, next to
the SQLite one and the oracle the differential battery compares it
with: tables are dictionaries of per-column Python lists, driven by a
small SQL interpreter for exactly the statements perfbase emits:

* ``CREATE [TEMP] TABLE``, ``CREATE INDEX`` (a no-op), ``DROP TABLE``,
  ``ALTER TABLE .. ADD/DROP COLUMN``;
* ``INSERT .. VALUES`` (with ``ON CONFLICT(key) DO UPDATE`` upserts),
  ``INSERT .. SELECT`` into tables without a primary key, ``UPDATE``,
  ``DELETE``;
* ``SELECT [DISTINCT]`` from one named or derived table, optionally
  ``JOIN``-ed to more on conjunctions of column equalities, with
  ``WHERE``, ``GROUP BY`` over plain columns of a single table,
  ``ORDER BY``, ``LIMIT`` and ``UNION ALL``;
* expressions: literals, ``?`` parameters, columns, ``+ - * / %``,
  comparisons, ``IS [NOT] NULL``, ``IN (..)``, ``LIKE``, ``NOT``,
  ``AND``, ``OR``, ``CAST``, ``COALESCE`` and the aggregates
  ``COUNT``/``SUM``/``AVG``/``MIN``/``MAX`` and ``pb_variance``/
  ``pb_stddev``/``pb_median``/``pb_product``.

Any other statement shape raises :class:`DatabaseError` quoting the
statement, so an emitter that outgrows this grammar fails loudly in the
differential battery rather than running differently.

Semantics deliberately mirror SQLite so the differential harness
(:mod:`repro.testing.differential`) can assert *byte-identical* results
across backends:

* column type affinity on storage (``INTEGER``/``REAL``/``TEXT``),
* integer division truncating toward zero, division by zero -> NULL,
* three-valued logic for NULL in WHERE/comparisons,
* the SQLite ordering of types (NULL < numbers < text),
* ``rowid`` as implicit insertion-order column, with ``INTEGER PRIMARY
  KEY`` columns acting as the rowid alias (scan order follows the key),
* the ``pb_*`` statistical aggregates with PostgreSQL-parity NULL
  semantics, computed in the same operation order as the Welford/median
  implementations the SQLite backend registers as user aggregates.

Transactions follow the legacy ``sqlite3`` autocommit model the SQLite
backend runs under (``isolation_level=""``): DML implicitly opens a
transaction, DDL joins an open transaction but autocommits outside one,
``begin()`` opens one explicitly; ``commit()`` and ``rollback()`` end
it (there is no ``BEGIN``/``COMMIT`` statement text).  Rollback replays
an undo log, so :class:`~repro.db.schema.BatchContext` failure
semantics are identical.

``attachable_uri``/``attach`` return ``None``: cross-database readers
(the parallel executor's source elements, the query cache) take their
Python-row fallback paths, which the differential battery exercises.
"""

from __future__ import annotations

import bisect
import itertools
import re
import sqlite3
import threading
from datetime import datetime
from typing import Any, Iterable, Sequence

from .. import faults as _faults
from ..core.errors import (DatabaseError, ExperimentExistsError,
                           NoSuchExperimentError)
from ..obs.tracer import current_tracer
from .backend import Database, DatabaseServer, quote_identifier
from .sqlite_backend import _sql_summary

__all__ = ["MemoryDatabase", "MemoryDatabaseServer", "memory_server_for",
           "evict_memory_server", "clear_memory_servers"]


# =========================================================================
# value semantics (SQLite parity)
# =========================================================================

def _affinity(decltype: str) -> str:
    """SQLite's column-affinity rules for a declared type."""
    t = decltype.upper()
    if "INT" in t:
        return "INTEGER"
    if "CHAR" in t or "CLOB" in t or "TEXT" in t:
        return "TEXT"
    if not t or "BLOB" in t:
        return "BLOB"
    if "REAL" in t or "FLOA" in t or "DOUB" in t:
        return "REAL"
    return "NUMERIC"


def _text_to_number(text: str):
    """The numeric value of a *fully* numeric string, else ``None``."""
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return None


def _store_value(affinity: str, value: Any) -> Any:
    """Apply column affinity to a cell on its way into storage."""
    if value is None:
        return None
    if isinstance(value, bool):
        value = int(value)
    elif isinstance(value, datetime):
        # same adapter the SQLite backend registers
        value = value.strftime("%Y-%m-%d %H:%M:%S.%f")
    if affinity in ("INTEGER", "NUMERIC"):
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            return int(value) if value.is_integer() else value
        if isinstance(value, str):
            number = _text_to_number(value)
            if number is None:
                return value
            if isinstance(number, float) and number.is_integer():
                return int(number)
            return number
        return value
    if affinity == "REAL":
        if isinstance(value, int):
            return float(value)
        if isinstance(value, str):
            number = _text_to_number(value)
            return float(number) if number is not None else value
        return value
    if affinity == "TEXT":
        if isinstance(value, (int, float)):
            return str(value)
        return value
    return value


def _store_column(affinity: str, values: list) -> list:
    """Affinity conversion of a whole column, with the already-conform
    common case short-circuited (``type`` is exact, so bool — an int
    subclass — still reaches :func:`_store_value`)."""
    if affinity == "REAL":
        return [v if type(v) is float
                else float(v) if type(v) is int
                else _store_value("REAL", v) for v in values]
    if affinity in ("INTEGER", "NUMERIC"):
        return [v if type(v) is int
                else _store_value(affinity, v) for v in values]
    if affinity == "TEXT":
        return [v if type(v) is str
                else _store_value(affinity, v) for v in values]
    return [v if (v is None or type(v) is str or type(v) is int
                  or type(v) is float or type(v) is bytes)
            else _store_value(affinity, v) for v in values]


def _num(value: Any):
    """Numeric coercion of an operand in arithmetic (SQLite rules)."""
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        number = _text_to_number(value)
        return 0 if number is None else number
    return 0


def _rank(value: Any) -> int:
    """SQLite's cross-type ordering: NULL < numbers < text < blob."""
    if value is None:
        return 0
    if isinstance(value, (int, float)):
        return 1
    if isinstance(value, str):
        return 2
    return 3


def _sort_key(value: Any):
    rank = _rank(value)
    if rank == 1:
        return (1, float(value), "")
    if rank == 2:
        return (2, 0.0, value)
    return (rank, 0.0, "")


def _compare(a: Any, b: Any):
    """Three-valued comparison: -1/0/1, or ``None`` with a NULL side."""
    if a is None or b is None:
        return None
    ra, rb = _rank(a), _rank(b)
    if ra != rb:
        return -1 if ra < rb else 1
    if ra == 1:
        return (a > b) - (a < b)
    return (a > b) - (a < b)


def _gkey(value: Any):
    """Grouping/uniqueness key with SQLite's numeric equality
    (``1`` and ``1.0`` fall into the same group)."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    return value


def _truthy(value: Any):
    """SQLite WHERE truth: NULL stays NULL, numbers by value."""
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return value != 0
    number = _text_to_number(value) if isinstance(value, str) else None
    return bool(number) if number is not None else False


# -- arithmetic with SQLite NULL/div-by-zero semantics ---------------------

def _add(a, b):
    if a is None or b is None:
        return None
    return _num(a) + _num(b)


def _sub(a, b):
    if a is None or b is None:
        return None
    return _num(a) - _num(b)


def _mul(a, b):
    if a is None or b is None:
        return None
    return _num(a) * _num(b)


def _div(a, b):
    if a is None or b is None:
        return None
    a, b = _num(a), _num(b)
    if b == 0:
        return None
    if isinstance(a, int) and isinstance(b, int):
        # SQLite integer division truncates toward zero
        q = abs(a) // abs(b)
        return q if (a < 0) == (b < 0) else -q
    return a / b


def _mod(a, b):
    if a is None or b is None:
        return None
    a, b = _num(a), _num(b)
    if b == 0:
        return None
    r = abs(a) % abs(b)
    r = r if a >= 0 else -r
    return float(r) if isinstance(a, float) or isinstance(b, float) else r


_LIKE_CACHE: dict[str, re.Pattern] = {}


def _like(value, pattern):
    if value is None or pattern is None:
        return None
    if isinstance(value, (int, float)):
        value = str(value)
    if isinstance(pattern, (int, float)):
        pattern = str(pattern)
    regex = _LIKE_CACHE.get(pattern)
    if regex is None:
        parts = []
        for ch in pattern:
            if ch == "%":
                parts.append(".*")
            elif ch == "_":
                parts.append(".")
            else:
                parts.append(re.escape(ch))
        regex = re.compile("^" + "".join(parts) + "$",
                           re.IGNORECASE | re.DOTALL)
        if len(_LIKE_CACHE) > 512:
            _LIKE_CACHE.clear()
        _LIKE_CACHE[pattern] = regex
    return regex.match(value) is not None


def _cast(value, target: str):
    """``CAST(x AS type)`` with SQLite conversion rules."""
    if value is None:
        return None
    affinity = _affinity(target)
    if affinity == "REAL":
        if isinstance(value, (int, float)):
            return float(value)
        number = _text_to_number(value) if isinstance(value, str) else None
        return float(number) if number is not None else 0.0
    if affinity in ("INTEGER", "NUMERIC"):
        if isinstance(value, int):
            return value
        if isinstance(value, float):
            return int(value)
        number = _text_to_number(value) if isinstance(value, str) else None
        return int(number) if number is not None else 0
    if affinity == "TEXT":
        return str(value) if isinstance(value, (int, float)) else value
    return value


# =========================================================================
# aggregates (SQLite built-ins + the pb_* user aggregates)
# =========================================================================

#: the aggregate functions the parser recognises (``COUNT(*)`` parses
#: to the pseudo-name ``count*``)
_AGGREGATE_NAMES = frozenset((
    "count", "sum", "avg", "min", "max",
    "pb_variance", "pb_stddev", "pb_median", "pb_product",
))


def _aggregate(name: str, values: list) -> Any:
    """Aggregate one column's values (``COUNT(*)`` is counted by the
    callers) in a single pass.

    SUM stays an integer until a float appears and is NULL over no
    rows, like SQLite's.  The ``pb_*`` aggregates perform their
    arithmetic in exactly the order of the SQLite backend's Python
    aggregate callbacks, so results are bit-identical across backends.
    """
    if name == "count":
        return sum(1 for v in values if v is not None)
    if name == "sum":
        acc, seen = 0, False
        for v in values:
            if v is None:
                continue
            seen = True
            v = _num(v)
            if isinstance(v, float) and isinstance(acc, int):
                acc = float(acc)
            acc += v
        return acc if seen else None
    if name == "avg":
        total, n = 0.0, 0
        for v in values:
            if v is not None:
                total += float(_num(v))
                n += 1
        return total / n if n else None
    if name in ("min", "max"):
        want = -1 if name == "min" else 1
        best = None
        for v in values:
            if v is None:
                continue
            if best is None or _compare(v, best) == want:
                best = v
        return best
    if name in ("pb_variance", "pb_stddev"):
        # Welford, identical operation order to _Variance.step
        n, mean, m2 = 0, 0.0, 0.0
        for v in values:
            if v is None:
                continue
            n += 1
            delta = float(v) - mean
            mean += delta / n
            m2 += delta * (float(v) - mean)
        if n < 2:
            return None
        var = m2 / (n - 1)
        return var if name == "pb_variance" else var ** 0.5
    if name == "pb_median":
        vals = sorted(float(v) for v in values if v is not None)
        if not vals:
            return None
        mid = len(vals) // 2
        if len(vals) % 2:
            return vals[mid]
        return 0.5 * (vals[mid - 1] + vals[mid])
    if name == "pb_product":
        product, seen = 1.0, False
        for v in values:
            if v is not None:
                seen = True
                product *= float(v)
        return product if seen else None
    raise DatabaseError(f"unknown aggregate {name!r}")


# =========================================================================
# tokenizer
# =========================================================================

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<qident>"(?:[^"]|"")*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><>|<=|>=|==|!=|[-+*/%(),.?=<>;])
""", re.VERBOSE)


def _tokenize(sql: str) -> list[tuple[str, Any]]:
    tokens: list[tuple[str, Any]] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise DatabaseError(
                f"unrecognised SQL near {sql[pos:pos + 20]!r}")
        pos = match.end()
        kind = match.lastgroup
        text = match.group()
        if kind == "ws":
            continue
        if kind == "number":
            if "." in text or "e" in text or "E" in text:
                tokens.append(("num", float(text)))
            else:
                tokens.append(("num", int(text)))
        elif kind == "string":
            tokens.append(("str", text[1:-1].replace("''", "'")))
        elif kind == "qident":
            tokens.append(("id", text[1:-1].replace('""', '"')))
        elif kind == "ident":
            tokens.append(("id", text))
        else:
            tokens.append(("op", text))
    tokens.append(("end", None))
    return tokens


# =========================================================================
# statement ASTs
# =========================================================================

class _CreateTable:
    __slots__ = ("table", "columns", "primary_key", "temporary",
                 "if_not_exists")

    def __init__(self, table, columns, primary_key, temporary,
                 if_not_exists):
        self.table = table
        self.columns = columns          # [(name, decltype)]
        self.primary_key = primary_key
        self.temporary = temporary
        self.if_not_exists = if_not_exists


class _CreateIndex:
    __slots__ = ()


class _AlterTable:
    __slots__ = ("table", "action", "column", "decltype")

    def __init__(self, table, action, column, decltype=None):
        self.table = table
        self.action = action            # "add" | "drop"
        self.column = column
        self.decltype = decltype


class _DropTable:
    __slots__ = ("table", "if_exists")

    def __init__(self, table, if_exists):
        self.table = table
        self.if_exists = if_exists


class _Insert:
    __slots__ = ("table", "columns", "values", "select",
                 "conflict_key", "conflict_sets")

    def __init__(self, table, columns, values, select,
                 conflict_key=None, conflict_sets=None):
        self.table = table
        self.columns = columns          # list[str] | None
        self.values = values            # list[expr] | None
        self.select = select            # _Select | _Compound | None
        self.conflict_key = conflict_key
        self.conflict_sets = conflict_sets  # [(col, expr)]


class _Update:
    __slots__ = ("table", "sets", "where")

    def __init__(self, table, sets, where):
        self.table = table
        self.sets = sets                # [(col, expr)]
        self.where = where


class _Delete:
    __slots__ = ("table", "where")

    def __init__(self, table, where):
        self.table = table
        self.where = where


class _Select:
    __slots__ = ("distinct", "items", "source", "joins", "where",
                 "group", "order", "limit")

    def __init__(self, distinct, items, source, joins, where, group,
                 order, limit):
        self.distinct = distinct
        self.items = items              # [("star", alias|None)
        #                                  | ("expr", ast, alias|None)]
        self.source = source            # (table|select_ast, alias) | None
        self.joins = joins              # [(table|select_ast, alias, on_expr)]
        self.where = where
        self.group = group              # [ast]
        self.order = order              # [(ast, desc)]
        self.limit = limit              # expr | None


class _Compound:
    __slots__ = ("selects",)

    def __init__(self, selects):
        self.selects = selects


# =========================================================================
# parser
# =========================================================================

_RESERVED_ALIAS = frozenset((
    "JOIN", "INNER", "LEFT", "CROSS", "ON", "WHERE", "GROUP", "ORDER",
    "LIMIT", "UNION", "AS", "SET", "VALUES", "AND", "OR", "NOT",
))


class _Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = _tokenize(sql)
        self.pos = 0
        self.n_params = 0

    # -- token plumbing ---------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def at_kw(self, *words) -> bool:
        kind, value = self.peek()
        return kind == "id" and value.upper() in words

    def accept_kw(self, *words) -> bool:
        if self.at_kw(*words):
            self.pos += 1
            return True
        return False

    def expect_kw(self, word):
        if not self.accept_kw(word):
            raise DatabaseError(
                f"expected {word} near token {self.peek()!r}")

    def accept_op(self, op) -> bool:
        kind, value = self.peek()
        if kind == "op" and value == op:
            self.pos += 1
            return True
        return False

    def expect_op(self, op):
        if not self.accept_op(op):
            raise DatabaseError(
                f"expected {op!r} near token {self.peek()!r}")

    def ident(self) -> str:
        kind, value = self.advance()
        if kind != "id":
            raise DatabaseError(f"expected identifier, got {value!r}")
        return value

    # -- statements -------------------------------------------------------

    def parse(self):
        stmt = self.statement()
        self.accept_op(";")
        kind, _ = self.peek()
        if kind != "end":
            raise DatabaseError(
                f"trailing tokens after statement: {self.peek()!r}")
        return stmt

    def statement(self):
        if self.at_kw("CREATE"):
            return self.create()
        if self.at_kw("DROP"):
            return self.drop()
        if self.at_kw("ALTER"):
            return self.alter()
        if self.at_kw("INSERT"):
            return self.insert()
        if self.at_kw("UPDATE"):
            return self.update()
        if self.at_kw("DELETE"):
            return self.delete()
        if self.at_kw("SELECT"):
            return self.select_compound()
        raise DatabaseError(f"unsupported statement: {self.sql!r}")

    def create(self):
        self.expect_kw("CREATE")
        temporary = (self.accept_kw("TEMPORARY")
                     or self.accept_kw("TEMP"))
        if self.accept_kw("UNIQUE"):
            pass
        if self.accept_kw("INDEX"):
            if self.accept_kw("IF"):
                self.expect_kw("NOT")
                self.expect_kw("EXISTS")
            self.ident()
            self.expect_kw("ON")
            self.ident()
            self.expect_op("(")
            while True:
                self.ident()
                if not self.accept_op(","):
                    break
            self.expect_op(")")
            return _CreateIndex()
        self.expect_kw("TABLE")
        if_not_exists = False
        if self.accept_kw("IF"):
            self.expect_kw("NOT")
            self.expect_kw("EXISTS")
            if_not_exists = True
        table = self.ident()
        self.expect_op("(")
        columns: list[tuple[str, str]] = []
        primary_key = None
        while True:
            col = self.ident()
            type_words = []
            while self.peek()[0] == "id" and not self.at_kw(
                    "PRIMARY", "NOT", "DEFAULT", "UNIQUE"):
                type_words.append(self.ident())
            decltype = " ".join(type_words)
            if self.accept_kw("PRIMARY"):
                self.expect_kw("KEY")
                primary_key = col
            columns.append((col, decltype))
            if not self.accept_op(","):
                break
        self.expect_op(")")
        return _CreateTable(table, columns, primary_key, temporary,
                            if_not_exists)

    def drop(self):
        self.expect_kw("DROP")
        self.expect_kw("TABLE")
        if_exists = False
        if self.accept_kw("IF"):
            self.expect_kw("EXISTS")
            if_exists = True
        return _DropTable(self.ident(), if_exists)

    def alter(self):
        self.expect_kw("ALTER")
        self.expect_kw("TABLE")
        table = self.ident()
        if self.accept_kw("ADD"):
            self.accept_kw("COLUMN")
            col = self.ident()
            type_words = []
            while self.peek()[0] == "id":
                type_words.append(self.ident())
            return _AlterTable(table, "add", col, " ".join(type_words))
        if self.accept_kw("DROP"):
            self.accept_kw("COLUMN")
            return _AlterTable(table, "drop", self.ident())
        raise DatabaseError(f"unsupported ALTER TABLE: {self.sql!r}")

    def insert(self):
        self.expect_kw("INSERT")
        self.accept_kw("OR") and self.ident()
        self.expect_kw("INTO")
        table = self.ident()
        columns = None
        if self.accept_op("("):
            columns = []
            while True:
                columns.append(self.ident())
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        values = select = None
        if self.accept_kw("VALUES"):
            self.expect_op("(")
            values = []
            while True:
                values.append(self.expr())
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        else:
            select = self.select_compound()
        conflict_key = conflict_sets = None
        if self.accept_kw("ON"):
            self.expect_kw("CONFLICT")
            self.expect_op("(")
            conflict_key = self.ident()
            self.expect_op(")")
            self.expect_kw("DO")
            self.expect_kw("UPDATE")
            self.expect_kw("SET")
            conflict_sets = []
            while True:
                col = self.ident()
                self.expect_op("=")
                conflict_sets.append((col, self.expr()))
                if not self.accept_op(","):
                    break
        return _Insert(table, columns, values, select,
                       conflict_key, conflict_sets)

    def update(self):
        self.expect_kw("UPDATE")
        table = self.ident()
        self.expect_kw("SET")
        sets = []
        while True:
            col = self.ident()
            self.expect_op("=")
            sets.append((col, self.expr()))
            if not self.accept_op(","):
                break
        where = self.expr() if self.accept_kw("WHERE") else None
        return _Update(table, sets, where)

    def delete(self):
        self.expect_kw("DELETE")
        self.expect_kw("FROM")
        table = self.ident()
        where = self.expr() if self.accept_kw("WHERE") else None
        return _Delete(table, where)

    def select_compound(self):
        selects = [self.select()]
        while self.accept_kw("UNION"):
            self.expect_kw("ALL")  # plain UNION is not emitted
            selects.append(self.select())
        if len(selects) == 1:
            return selects[0]
        return _Compound(selects)

    def select(self):
        self.expect_kw("SELECT")
        distinct = self.accept_kw("DISTINCT")
        self.accept_kw("ALL")
        items = []
        while True:
            if self.accept_op("*"):
                items.append(("star", None))
            else:
                checkpoint = self.pos
                kind, value = self.peek()
                starred = False
                if kind == "id":
                    self.pos += 1
                    if self.accept_op("."):
                        if self.accept_op("*"):
                            items.append(("star", value))
                            starred = True
                    if not starred:
                        self.pos = checkpoint
                if not starred:
                    ast = self.expr()
                    alias = self.ident() if self.accept_kw("AS") \
                        else None
                    items.append(("expr", ast, alias))
            if not self.accept_op(","):
                break
        source = None
        joins: list[tuple[Any, str | None, Any]] = []
        if self.accept_kw("FROM"):
            source = self.table_ref()
            while True:
                self.accept_kw("INNER")
                if not self.accept_kw("JOIN"):
                    break
                table, alias = self.table_ref()
                self.expect_kw("ON")
                joins.append((table, alias, self.expr()))
        where = self.expr() if self.accept_kw("WHERE") else None
        group = []
        if self.accept_kw("GROUP"):
            self.expect_kw("BY")
            while True:
                group.append(self.expr())
                if not self.accept_op(","):
                    break
        order = []
        if self.accept_kw("ORDER"):
            self.expect_kw("BY")
            while True:
                term = self.expr()
                desc = False
                if self.accept_kw("DESC"):
                    desc = True
                else:
                    self.accept_kw("ASC")
                order.append((term, desc))
                if not self.accept_op(","):
                    break
        limit = self.expr() if self.accept_kw("LIMIT") else None
        return _Select(distinct, items, source, joins, where, group,
                       order, limit)

    def table_ref(self):
        if self.peek() == ("op", "("):
            self.pos += 1
            table: Any = self.select_compound()
            self.expect_op(")")
        else:
            table = self.ident()
        alias = None
        kind, value = self.peek()
        if kind == "id" and value.upper() not in _RESERVED_ALIAS:
            alias = self.advance()[1]
        elif self.accept_kw("AS"):
            alias = self.ident()
        if not isinstance(table, str) and alias is None:
            raise DatabaseError("derived table requires an alias")
        return table, alias

    # -- expressions ------------------------------------------------------

    def expr(self):
        return self.expr_or()

    def expr_or(self):
        node = self.expr_and()
        while self.accept_kw("OR"):
            node = ("or", node, self.expr_and())
        return node

    def expr_and(self):
        node = self.expr_not()
        while self.accept_kw("AND"):
            node = ("and", node, self.expr_not())
        return node

    def expr_not(self):
        if self.accept_kw("NOT"):
            return ("not", self.expr_not())
        return self.expr_cmp()

    def expr_cmp(self):
        node = self.expr_add()
        while True:
            kind, value = self.peek()
            if kind == "op" and value in ("=", "==", "!=", "<>", "<",
                                          "<=", ">", ">="):
                self.pos += 1
                op = {"==": "=", "!=": "<>"}.get(value, value)
                node = ("cmp", op, node, self.expr_add())
                continue
            if self.at_kw("IS"):
                self.pos += 1
                negate = self.accept_kw("NOT")
                self.expect_kw("NULL")
                node = ("isnull", node, negate)
                continue
            if self.accept_kw("LIKE"):
                node = ("like", node, self.expr_add())
                continue
            if self.accept_kw("IN"):
                node = ("in", node, self.in_list())
                continue
            break
        return node

    def in_list(self):
        self.expect_op("(")
        exprs = []
        while True:
            exprs.append(self.expr())
            if not self.accept_op(","):
                break
        self.expect_op(")")
        return exprs

    def expr_add(self):
        node = self.expr_mul()
        while True:
            kind, value = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.pos += 1
                node = ("bin", value, node, self.expr_mul())
            else:
                return node

    def expr_mul(self):
        node = self.expr_unary()
        while True:
            kind, value = self.peek()
            if kind == "op" and value in ("*", "/", "%"):
                self.pos += 1
                node = ("bin", value, node, self.expr_unary())
            else:
                return node

    def expr_unary(self):
        if self.accept_op("-"):
            return ("neg", self.expr_unary())
        if self.accept_op("+"):
            return self.expr_unary()
        return self.expr_primary()

    def expr_primary(self):
        kind, value = self.peek()
        if kind == "num":
            self.pos += 1
            return ("lit", value)
        if kind == "str":
            self.pos += 1
            return ("lit", value)
        if kind == "op" and value == "?":
            self.pos += 1
            index = self.n_params
            self.n_params += 1
            return ("param", index)
        if kind == "op" and value == "(":
            self.pos += 1
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "id":
            upper = value.upper()
            if upper == "NULL":
                self.pos += 1
                return ("lit", None)
            if upper == "CAST":
                self.pos += 1
                self.expect_op("(")
                inner = self.expr()
                self.expect_kw("AS")
                target = self.ident()
                self.expect_op(")")
                return ("cast", inner, target)
            # function call or column reference
            if self.tokens[self.pos + 1] == ("op", "("):
                name = value.lower()
                self.pos += 2
                if name == "count" and self.accept_op("*"):
                    self.expect_op(")")
                    return ("agg", "count*", None)
                args = []
                if not self.accept_op(")"):
                    while True:
                        args.append(self.expr())
                        if not self.accept_op(","):
                            break
                    self.expect_op(")")
                if name in _AGGREGATE_NAMES and len(args) == 1:
                    return ("agg", name, args[0])
                if name == "coalesce":
                    return ("coalesce", args)
                raise DatabaseError(
                    f"unsupported SQL function {value!r}")
            self.pos += 1
            if self.accept_op("."):
                return ("col", value, self.ident())
            return ("col", None, value)
        raise DatabaseError(f"unexpected token {value!r} in expression")


_PARSE_CACHE: dict[str, Any] = {}
_PARSE_LOCK = threading.Lock()

#: sentinel distinguishing "not a constant" from a literal NULL
_UNSUPPORTED = object()


def _parse(sql: str):
    stmt = _PARSE_CACHE.get(sql)
    if stmt is None:
        stmt = _Parser(sql).parse()
        with _PARSE_LOCK:
            if len(_PARSE_CACHE) > 4096:
                _PARSE_CACHE.clear()
            _PARSE_CACHE[sql] = stmt
    return stmt


# =========================================================================
# expression compilation
# =========================================================================

class _CompileCtx:
    """Per-execution compilation state: the aggregates to compute."""

    __slots__ = ("resolver", "aggs")

    def __init__(self, resolver):
        self.resolver = resolver        # (qualifier, name) -> slot index
        self.aggs: list[tuple[str, Any]] = []  # (name, arg_fn | None)


def _compile(node, ctx: _CompileCtx, allow_agg: bool = False):
    """Compile an expression AST into ``f(row, env)`` where ``env`` is
    ``(params, aggvals)``."""
    kind = node[0]
    if kind == "lit":
        value = node[1]
        return lambda row, env: value
    if kind == "param":
        index = node[1]
        return lambda row, env: env[0][index]
    if kind == "col":
        slot = ctx.resolver(node[1], node[2])
        return lambda row, env: row[slot]
    if kind == "agg":
        if not allow_agg:
            raise DatabaseError("aggregate in illegal context")
        name = node[1]
        arg = (None if node[2] is None
               else _compile(node[2], ctx, allow_agg=False))
        index = len(ctx.aggs)
        ctx.aggs.append((name, arg))
        return lambda row, env: env[1][index]
    if kind == "cast":
        inner = _compile(node[1], ctx, allow_agg)
        target = node[2]
        return lambda row, env: _cast(inner(row, env), target)
    if kind == "coalesce":
        fns = [_compile(a, ctx, allow_agg) for a in node[1]]

        def coalesce(row, env):
            for fn in fns:
                value = fn(row, env)
                if value is not None:
                    return value
            return None
        return coalesce
    if kind == "neg":
        inner = _compile(node[1], ctx, allow_agg)

        def neg(row, env):
            value = inner(row, env)
            return None if value is None else -_num(value)
        return neg
    if kind == "bin":
        op = node[1]
        left = _compile(node[2], ctx, allow_agg)
        right = _compile(node[3], ctx, allow_agg)
        fn = {"+": _add, "-": _sub, "*": _mul, "/": _div, "%": _mod}[op]
        return lambda row, env: fn(left(row, env), right(row, env))
    if kind == "cmp":
        op = node[1]
        left = _compile(node[2], ctx, allow_agg)
        right = _compile(node[3], ctx, allow_agg)

        def cmp(row, env, op=op):
            c = _compare(left(row, env), right(row, env))
            if c is None:
                return None
            if op == "=":
                return c == 0
            if op == "<>":
                return c != 0
            if op == "<":
                return c < 0
            if op == "<=":
                return c <= 0
            if op == ">":
                return c > 0
            return c >= 0
        return cmp
    if kind == "isnull":
        inner = _compile(node[1], ctx, allow_agg)
        negate = node[2]
        if negate:
            return lambda row, env: inner(row, env) is not None
        return lambda row, env: inner(row, env) is None
    if kind == "like":
        left = _compile(node[1], ctx, allow_agg)
        right = _compile(node[2], ctx, allow_agg)
        return lambda row, env: _like(left(row, env), right(row, env))
    if kind == "in":
        left = _compile(node[1], ctx, allow_agg)
        fns = [_compile(e, ctx, allow_agg) for e in node[2]]

        def isin(row, env):
            value = left(row, env)
            if value is None:
                return None
            saw_null = False
            for fn in fns:
                other = fn(row, env)
                c = _compare(value, other)
                if c is None:
                    saw_null = True
                elif c == 0:
                    return True
            if saw_null:
                return None
            return False
        return isin
    if kind == "not":
        inner = _compile(node[1], ctx, allow_agg)

        def negation(row, env):
            value = _truthy(inner(row, env))
            return None if value is None else (not value)
        return negation
    if kind == "and":
        left = _compile(node[1], ctx, allow_agg)
        right = _compile(node[2], ctx, allow_agg)

        def conj(row, env):
            a = _truthy(left(row, env))
            if a is False:
                return False
            b = _truthy(right(row, env))
            if b is False:
                return False
            if a is None or b is None:
                return None
            return True
        return conj
    if kind == "or":
        left = _compile(node[1], ctx, allow_agg)
        right = _compile(node[2], ctx, allow_agg)

        def disj(row, env):
            a = _truthy(left(row, env))
            if a is True:
                return True
            b = _truthy(right(row, env))
            if b is True:
                return True
            if a is None or b is None:
                return None
            return False
        return disj
    raise DatabaseError(f"cannot compile expression node {kind!r}")


def _find_aggs(node) -> bool:
    """Whether an expression AST contains an aggregate call."""
    kind = node[0]
    if kind == "agg":
        return True
    if kind in ("lit", "param", "col"):
        return False
    if kind == "cast":
        return _find_aggs(node[1])
    if kind == "coalesce":
        return any(_find_aggs(a) for a in node[1])
    if kind in ("neg", "not"):
        return _find_aggs(node[1])
    if kind in ("bin", "cmp"):
        return _find_aggs(node[2]) or _find_aggs(node[3])
    if kind in ("and", "or"):
        return _find_aggs(node[1]) or _find_aggs(node[2])
    if kind == "isnull":
        return _find_aggs(node[1])
    if kind == "like":
        return _find_aggs(node[1]) or _find_aggs(node[2])
    if kind == "in":
        return _find_aggs(node[1]) or any(_find_aggs(e)
                                          for e in node[2])
    return False


# =========================================================================
# columnar table
# =========================================================================

class _Table:
    """One table: per-column value lists plus a parallel rowid list."""

    __slots__ = ("name", "columns", "types", "affinities", "cols",
                 "rowids", "primary_key", "rowid_is_pk", "next_rowid",
                 "temporary", "_pk_map")

    def __init__(self, name: str, columns: list[tuple[str, str]],
                 primary_key: str | None, temporary: bool):
        self.name = name
        self.columns = [c for c, _ in columns]
        self.types = {c: t for c, t in columns}
        self.affinities = {c: _affinity(t) for c, t in columns}
        self.cols: dict[str, list] = {c: [] for c, _ in columns}
        self.rowids: list[int] = []
        self.primary_key = primary_key
        self.rowid_is_pk = (
            primary_key is not None
            and self.affinities.get(primary_key) == "INTEGER")
        self.next_rowid = 1
        self.temporary = temporary
        self._pk_map: dict | None = {} if primary_key else None

    def __len__(self) -> int:
        return len(self.rowids)

    # -- primary-key bookkeeping ----------------------------------------

    def pk_position(self, value) -> int | None:
        if self.primary_key is None:
            return None
        if self._pk_map is None:
            column = self.cols[self.primary_key]
            self._pk_map = {_gkey(v): i for i, v in enumerate(column)}
        return self._pk_map.get(_gkey(value))

    def _pk_note_insert(self, value, position: int) -> None:
        if self._pk_map is not None:
            if position == len(self.rowids) - 1:
                self._pk_map[_gkey(value)] = position
            else:
                self._pk_map = None

    def invalidate(self) -> None:
        if self.primary_key is not None:
            self._pk_map = None

    # -- mutation --------------------------------------------------------

    def insert_row(self, cells: list) -> tuple[int, int]:
        """Insert one affinity-converted row; returns (position, rowid)."""
        if self.rowid_is_pk:
            pk = cells[self.columns.index(self.primary_key)]
            rowid = int(pk) if pk is not None else self.next_rowid
            position = bisect.bisect_left(self.rowids, rowid)
        else:
            rowid = self.next_rowid
            position = len(self.rowids)
        self.next_rowid = max(self.next_rowid, rowid + 1)
        if position == len(self.rowids):
            self.rowids.append(rowid)
            for name, value in zip(self.columns, cells):
                self.cols[name].append(value)
        else:
            self.rowids.insert(position, rowid)
            for name, value in zip(self.columns, cells):
                self.cols[name].insert(position, value)
        if self.primary_key is not None:
            self._pk_note_insert(
                cells[self.columns.index(self.primary_key)], position)
        return position, rowid

    def remove_position(self, position: int) -> tuple[int, list]:
        rowid = self.rowids.pop(position)
        cells = [self.cols[c].pop(position) for c in self.columns]
        self.invalidate()
        return rowid, cells

    def restore_position(self, position: int, rowid: int,
                         cells: list) -> None:
        self.rowids.insert(position, rowid)
        for name, value in zip(self.columns, cells):
            self.cols[name].insert(position, value)
        self.invalidate()

    def scan(self) -> list[tuple]:
        """All rows as tuples of column values plus trailing rowid."""
        if not self.columns:
            return [(rowid,) for rowid in self.rowids]
        return list(zip(*(self.cols[c] for c in self.columns),
                        self.rowids))


# =========================================================================
# the database
# =========================================================================

class MemoryDatabase(Database):
    """An in-memory columnar :class:`Database`.

    Statement execution is serialised on a per-database lock like the
    SQLite backend; fault-injection (``db.run``/``db.commit`` sites) and
    tracer spans mirror it too, so observability and robustness tests
    behave identically across backends.
    """

    def __init__(self, name: str = "memory"):
        self.path = f"memory://{name}"
        self._tables: dict[str, _Table] = {}
        self._lock = threading.RLock()
        self._in_txn = False
        self._undo: list = []
        self._closed = False
        self._last_rowcount = 0

    # -- transactions ----------------------------------------------------

    def _begin_implicit(self) -> None:
        if not self._in_txn:
            self._in_txn = True

    def _record(self, fn) -> None:
        if self._in_txn:
            self._undo.append(fn)

    def commit(self) -> None:
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.check("db.commit", db=self.path)
        with self._lock:
            self._in_txn = False
            self._undo.clear()

    def begin(self) -> None:
        with self._lock:
            if not self._in_txn:
                self._in_txn = True

    def rollback(self) -> None:
        with self._lock:
            for fn in reversed(self._undo):
                fn()
            self._undo.clear()
            self._in_txn = False

    def close(self) -> None:
        with self._lock:
            self._closed = True

    def _reopen(self) -> None:
        """Reset the closed flag (the server reopens live data)."""
        self._closed = False

    # -- execution choke point -------------------------------------------

    def _run(self, sql: str, params: Any, *, many: bool = False,
             fetch: str | None = None):
        tracer = current_tracer()
        if tracer is None:
            return self._run_locked(sql, params, many=many, fetch=fetch)
        op = ("db.executemany" if many
              else f"db.fetch{fetch}" if fetch else "db.execute")
        with tracer.span(op, kind="db", sql=_sql_summary(sql)) as span:
            result = self._run_locked(sql, params, many=many,
                                      fetch=fetch)
            if fetch == "all":
                rows = len(result)
            elif fetch == "one":
                rows = 0 if result is None else 1
            else:
                rows = self._last_rowcount
            span.attributes["rows"] = rows
            metrics = tracer.metrics
            metrics.counter("db.statements").inc()
            if fetch:
                metrics.counter("db.rows_fetched").inc(rows)
            else:
                metrics.counter("db.rows_affected").inc(rows)
            return result

    def _run_locked(self, sql: str, params: Any, *, many: bool,
                    fetch: str | None):
        with self._lock:
            try:
                if _faults.ACTIVE is not None:
                    _faults.ACTIVE.check("db.run", db=self.path,
                                         sql=_sql_summary(sql))
                if self._closed:
                    raise DatabaseError(
                        f"database {self.path} is closed "
                        f"[sql: {sql}]")
                stmt = _parse(sql)
                if many:
                    for row in params:
                        self._execute_stmt(stmt, tuple(row), sql)
                    return None
                rows = self._execute_stmt(stmt, params, sql)
                if fetch == "all":
                    return rows if rows is not None else []
                if fetch == "one":
                    return rows[0] if rows else None
                return None
            except DatabaseError as exc:
                # every error names its statement, as on SQLite
                if "[sql: " in str(exc):
                    raise
                raise DatabaseError(f"{exc} [sql: {sql}]") from exc
            except sqlite3.Error as exc:
                # injected TransientLockFaults are OperationalErrors;
                # wrap them exactly like the SQLite backend so the
                # shared retry policy classifies them identically
                raise DatabaseError(f"{exc} [sql: {sql}]") from exc

    def execute(self, sql: str, params: Sequence[Any] = ()) -> None:
        self._run(sql, tuple(params))

    def executemany(self, sql: str,
                    rows: Iterable[Sequence[Any]]) -> None:
        self._run(sql, [tuple(r) for r in rows], many=True)

    def fetchall(self, sql: str,
                 params: Sequence[Any] = ()) -> list[tuple]:
        return self._run(sql, tuple(params), fetch="all")

    def fetchone(self, sql: str,
                 params: Sequence[Any] = ()) -> tuple | None:
        return self._run(sql, tuple(params), fetch="one")

    # -- introspection ----------------------------------------------------

    def table_exists(self, name: str) -> bool:
        with self._lock:
            return name in self._tables

    def table_columns(self, name: str) -> list[str]:
        quote_identifier(name)
        with self._lock:
            table = self._tables.get(name)
            if table is None:
                raise DatabaseError(f"no such table {name!r}")
            return list(table.columns)

    def drop_table(self, name: str) -> None:
        self.execute(f"DROP TABLE IF EXISTS {quote_identifier(name)}")

    def list_tables(self) -> list[str]:
        with self._lock:
            return sorted(self._tables)

    # -- statement dispatch ----------------------------------------------

    def _execute_stmt(self, stmt, params, sql: str):
        self._last_rowcount = 0
        if isinstance(stmt, (_Select, _Compound)):
            return self._exec_select(stmt, params)
        if isinstance(stmt, _Insert):
            self._exec_insert(stmt, params, sql)
            return None
        if isinstance(stmt, _Update):
            self._exec_update(stmt, params, sql)
            return None
        if isinstance(stmt, _Delete):
            self._exec_delete(stmt, params, sql)
            return None
        if isinstance(stmt, _CreateTable):
            self._exec_create(stmt, sql)
            return None
        if isinstance(stmt, _DropTable):
            self._exec_drop(stmt)
            return None
        if isinstance(stmt, _AlterTable):
            self._exec_alter(stmt, sql)
            return None
        if isinstance(stmt, _CreateIndex):
            return None
        raise DatabaseError(f"unsupported statement [sql: {sql}]")

    def _table(self, name: str, sql: str) -> _Table:
        table = self._tables.get(name)
        if table is None:
            raise DatabaseError(f"no such table: {name} [sql: {sql}]")
        return table

    # -- DDL --------------------------------------------------------------

    def _exec_create(self, stmt: _CreateTable, sql: str) -> None:
        if stmt.table in self._tables:
            if stmt.if_not_exists:
                return
            raise DatabaseError(
                f"table {stmt.table} already exists [sql: {sql}]")
        table = _Table(stmt.table, stmt.columns, stmt.primary_key,
                       stmt.temporary)
        self._tables[stmt.table] = table
        name = stmt.table
        self._record(lambda: self._tables.pop(name, None))

    def _exec_drop(self, stmt: _DropTable) -> None:
        table = self._tables.pop(stmt.table, None)
        if table is None:
            if stmt.if_exists:
                return
            raise DatabaseError(f"no such table: {stmt.table}")
        name = stmt.table
        self._record(lambda: self._tables.__setitem__(name, table))

    def _exec_alter(self, stmt: _AlterTable, sql: str) -> None:
        table = self._table(stmt.table, sql)
        if stmt.action == "add":
            if stmt.column in table.cols:
                raise DatabaseError(
                    f"duplicate column name: {stmt.column} "
                    f"[sql: {sql}]")
            table.columns.append(stmt.column)
            table.types[stmt.column] = stmt.decltype or ""
            table.affinities[stmt.column] = _affinity(
                stmt.decltype or "")
            table.cols[stmt.column] = [None] * len(table)
            column = stmt.column

            def undo_add():
                table.columns.remove(column)
                table.types.pop(column, None)
                table.affinities.pop(column, None)
                table.cols.pop(column, None)
            self._record(undo_add)
        else:
            if stmt.column not in table.cols:
                raise DatabaseError(
                    f"no such column: {stmt.column} [sql: {sql}]")
            position = table.columns.index(stmt.column)
            values = table.cols.pop(stmt.column)
            table.columns.pop(position)
            decltype = table.types.pop(stmt.column)
            affinity = table.affinities.pop(stmt.column)
            column = stmt.column

            def undo_drop():
                table.columns.insert(position, column)
                table.types[column] = decltype
                table.affinities[column] = affinity
                table.cols[column] = values
            self._record(undo_drop)

    # -- DML --------------------------------------------------------------

    def _insert_cells(self, table: _Table, columns: list[str],
                      values: list, sql: str,
                      conflict_key: str | None,
                      conflict_sets, params) -> None:
        cells = [None] * len(table.columns)
        for name, value in zip(columns, values):
            try:
                index = table.columns.index(name)
            except ValueError:
                raise DatabaseError(
                    f"table {table.name} has no column named {name} "
                    f"[sql: {sql}]") from None
            cells[index] = _store_value(table.affinities[name], value)

        if table.primary_key is not None:
            pk_value = cells[table.columns.index(table.primary_key)]
            position = table.pk_position(pk_value)
            if position is not None:
                if conflict_key is None:
                    raise DatabaseError(
                        f"UNIQUE constraint failed: {table.name}."
                        f"{table.primary_key} [sql: {sql}]")
                # upsert: update the existing row in place
                new_row = dict(zip(table.columns, cells))
                updates: list[tuple[str, Any]] = []
                for column, expr in conflict_sets:
                    value = self._eval_upsert(expr, table, position,
                                              new_row, params)
                    updates.append((column, _store_value(
                        table.affinities[column], value)))
                undo: list[tuple[str, Any]] = []
                for column, value in updates:
                    undo.append((column,
                                 table.cols[column][position]))
                    table.cols[column][position] = value
                    if column == table.primary_key:
                        table.invalidate()

                def undo_update():
                    for column, value in undo:
                        table.cols[column][position] = value
                    table.invalidate()
                self._record(undo_update)
                self._last_rowcount += 1
                return

        old_next = table.next_rowid
        position, rowid = table.insert_row(cells)

        def undo_insert():
            index = bisect.bisect_left(table.rowids, rowid)
            while index < len(table.rowids) \
                    and table.rowids[index] != rowid:
                index += 1
            if index < len(table.rowids):
                table.remove_position(index)
            table.next_rowid = old_next
        self._record(undo_insert)
        self._last_rowcount += 1

    def _eval_upsert(self, expr, table: _Table, position: int,
                     new_row: dict, params) -> Any:
        """Evaluate an ``ON CONFLICT .. SET`` expression: bare columns
        read the existing row, ``excluded.col`` the would-be row."""
        layout = table.columns

        def resolver(qualifier, name):
            if qualifier == "excluded":
                try:
                    return len(layout) + layout.index(name)
                except ValueError:
                    raise DatabaseError(
                        f"no such column excluded.{name}") from None
            try:
                return layout.index(name)
            except ValueError:
                raise DatabaseError(f"no such column {name}") from None
        fn = _compile(expr, _CompileCtx(resolver))
        row = tuple(table.cols[c][position] for c in layout) \
            + tuple(new_row[c] for c in layout)
        return fn(row, (params, ()))

    def _exec_insert(self, stmt: _Insert, params, sql: str) -> None:
        self._begin_implicit()
        table = self._table(stmt.table, sql)
        columns = stmt.columns or list(table.columns)
        if stmt.values is not None:
            ctx = _CompileCtx(lambda q, n: (_ for _ in ()).throw(
                DatabaseError(f"no such column {n} [sql: {sql}]")))
            fns = [_compile(v, ctx) for v in stmt.values]
            env = (params, ())
            values = [fn(None, env) for fn in fns]
            if len(values) != len(columns):
                raise DatabaseError(
                    f"{len(columns)} columns but {len(values)} values "
                    f"[sql: {sql}]")
            self._insert_cells(table, columns, values, sql,
                               stmt.conflict_key, stmt.conflict_sets,
                               params)
        else:
            self._bulk_insert(table, columns, stmt, params, sql)

    def _bulk_insert(self, table: _Table, columns: list[str],
                     stmt: _Insert, params, sql: str) -> None:
        """``INSERT .. SELECT`` as a column-wise append: one affinity
        pass per column and a single undo record.  Its targets are the
        query engine's temp and cache tables, so a primary-key or
        ``ON CONFLICT`` target is unsupported."""
        if table.primary_key is not None or stmt.conflict_key is not None:
            raise DatabaseError(
                "INSERT .. SELECT into a table with a primary key is "
                f"unsupported [sql: {sql}]")
        positions = []
        for name in columns:
            try:
                positions.append(table.columns.index(name))
            except ValueError:
                raise DatabaseError(
                    f"table {table.name} has no column named {name} "
                    f"[sql: {sql}]") from None
        if len(set(positions)) != len(positions):
            raise DatabaseError(f"duplicate insert column [sql: {sql}]")
        rows = self._exec_select(stmt.select, params)
        width = len(columns)
        if any(len(row) != width for row in rows):
            raise DatabaseError(
                f"{width} columns but a row of another width "
                f"[sql: {sql}]")
        old_len = len(table.rowids)
        old_next = table.next_rowid
        m = len(rows)
        for j, ci in enumerate(positions):
            name = table.columns[ci]
            table.cols[name].extend(_store_column(
                table.affinities[name], [row[j] for row in rows]))
        untouched = set(range(len(table.columns))) - set(positions)
        for ci in untouched:
            table.cols[table.columns[ci]].extend(
                itertools.repeat(None, m))
        table.rowids.extend(range(old_next, old_next + m))
        table.next_rowid = old_next + m

        def undo_bulk():
            for name in table.columns:
                del table.cols[name][old_len:]
            del table.rowids[old_len:]
            table.next_rowid = old_next
        self._record(undo_bulk)
        self._last_rowcount += m

    def _exec_update(self, stmt: _Update, params, sql: str) -> None:
        self._begin_implicit()
        table = self._table(stmt.table, sql)
        layout = table.columns

        def resolver(qualifier, name):
            if qualifier not in (None, stmt.table):
                raise DatabaseError(
                    f"no such column {qualifier}.{name} [sql: {sql}]")
            if name == "rowid":
                return len(layout)
            try:
                return layout.index(name)
            except ValueError:
                raise DatabaseError(
                    f"no such column: {name} [sql: {sql}]") from None
        ctx = _CompileCtx(resolver)
        where = (_compile(stmt.where, ctx)
                 if stmt.where is not None else None)
        sets = [(column, _compile(expr, ctx))
                for column, expr in stmt.sets]
        env = (params, ())
        rows = table.scan()
        undo: list[tuple[int, str, Any]] = []
        pk_touched = False
        for position, row in enumerate(rows):
            if where is not None and _truthy(where(row, env)) is not True:
                continue
            for column, fn in sets:
                value = _store_value(table.affinities[column],
                                     fn(row, env))
                undo.append((position, column,
                             table.cols[column][position]))
                table.cols[column][position] = value
                if column == table.primary_key:
                    pk_touched = True
            self._last_rowcount += 1
        if pk_touched:
            table.invalidate()
        if undo:
            def undo_update():
                for position, column, value in reversed(undo):
                    table.cols[column][position] = value
                table.invalidate()
            self._record(undo_update)

    def _exec_delete(self, stmt: _Delete, params, sql: str) -> None:
        self._begin_implicit()
        table = self._table(stmt.table, sql)
        layout = table.columns

        def resolver(qualifier, name):
            if name == "rowid":
                return len(layout)
            try:
                return layout.index(name)
            except ValueError:
                raise DatabaseError(
                    f"no such column: {name} [sql: {sql}]") from None
        env = None
        positions: list[int]
        if stmt.where is None:
            positions = list(range(len(table)))
        else:
            where = _compile(stmt.where, _CompileCtx(resolver))
            env = (params, ())
            positions = [i for i, row in enumerate(table.scan())
                         if _truthy(where(row, env)) is True]
        removed: list[tuple[int, int, list]] = []
        for position in reversed(positions):
            rowid, cells = table.remove_position(position)
            removed.append((position, rowid, cells))
        self._last_rowcount += len(removed)
        if removed:
            def undo_delete():
                for position, rowid, cells in reversed(removed):
                    table.restore_position(position, rowid, cells)
            self._record(undo_delete)

    # -- SELECT ------------------------------------------------------------

    def _resolve_source(self, ref, alias, params,
                        resolved: dict | None = None) -> _Table:
        """A FROM/JOIN entry: a named table, or a derived table
        materialised into an anonymous :class:`_Table` with rowids
        1..n and no affinity conversion.

        ``resolved`` memoises derived tables by AST identity for the
        duration of one statement evaluation, so the fast path trying a
        statement and then handing it to the generic interpreter never
        evaluates a derived table twice."""
        if isinstance(ref, str):
            return self._table(ref, "select")
        if resolved is not None and id(ref) in resolved:
            return resolved[id(ref)]
        names = _derived_names(ref)
        rows = self._exec_select(ref, params)
        table = _Table(alias or "", [(n, "") for n in names],
                       None, True)
        for j, name in enumerate(names):
            table.cols[name] = [row[j] for row in rows]
        table.rowids = list(range(1, len(rows) + 1))
        table.next_rowid = len(rows) + 1
        if resolved is not None:
            resolved[id(ref)] = table
        return table

    def _fast_select(self, stmt: _Select, params,
                     resolved: dict | None = None):
        """Vectorised evaluation of the hot statement shapes: a single
        table (named or derived), plain column / constant /
        ``agg(column)`` select items, a conjunction of single-column
        predicates, and optional GROUP BY over plain columns.  Works
        directly on the column lists — no per-row tuple
        materialisation, no compiled closure tree.

        Returns ``None`` for any other shape — joins, DISTINCT, LIMIT,
        expressions in the select list or WHERE — and the generic
        interpreter evaluates it instead; a GROUP BY declined here is
        unsupported there and raises.  A given statement always runs
        on the same one of the two paths, and tests/diffdb compares
        that path's result with SQLite's.

        Derived tables — the shape fused pushdown statements nest —
        are resolved through the shared ``resolved`` memo, so a late
        ``return None`` costs nothing: the generic path reuses the
        already-evaluated derived table.
        """
        if (stmt.joins or stmt.distinct or stmt.limit is not None
                or stmt.source is None):
            return None
        ref, alias = stmt.source
        if isinstance(ref, str):
            table = self._tables.get(ref)
            if table is None:    # let the generic path raise
                return None
        else:
            table = self._resolve_source(ref, alias, params, resolved)
        names = (alias, table.name)

        def column_of(node):
            """Plain column reference -> its value list, else None."""
            if node[0] != "col":
                return None
            qualifier, name = node[1], node[2]
            if qualifier is not None and qualifier not in names:
                return None
            if name in table.cols:
                return table.cols[name]
            if name == "rowid":
                return table.rowids
            return None

        def constant_of(node):
            if node[0] == "lit":
                return node[1]
            if node[0] == "param":
                return params[node[1]]
            return _UNSUPPORTED

        # -- WHERE: conjunction of single-column predicates ------------
        conjuncts: list = []

        def split(node):
            if node[0] == "and":
                split(node[1])
                split(node[2])
            else:
                conjuncts.append(node)
        if stmt.where is not None:
            split(stmt.where)

        tests: list[tuple[list, Any]] = []
        for node in conjuncts:
            if node[0] == "not" and node[1][0] == "isnull":
                node = ("isnull", node[1][1], not node[1][2])
            kind = node[0]
            if kind == "isnull":
                col = column_of(node[1])
                if col is None:
                    return None
                if node[2]:
                    tests.append((col, lambda v: v is not None))
                else:
                    tests.append((col, lambda v: v is None))
            elif kind == "cmp":
                op = node[1]
                col, other = column_of(node[2]), node[3]
                if col is None:
                    col, other = column_of(node[3]), node[2]
                    op = {"<": ">", "<=": ">=", ">": "<",
                          ">=": "<="}.get(op, op)
                if col is None:
                    return None
                value = constant_of(other)
                if value is _UNSUPPORTED:
                    return None
                if value is None:   # comparison with NULL: no rows
                    tests.append((col, lambda v: False))
                elif op == "=":
                    tests.append((col, lambda v, w=value:
                                  v is not None
                                  and _compare(v, w) == 0))
                elif op == "<>":
                    tests.append((col, lambda v, w=value:
                                  v is not None
                                  and _compare(v, w) != 0))
                elif op == "<":
                    tests.append((col, lambda v, w=value:
                                  v is not None and _compare(v, w) < 0))
                elif op == "<=":
                    tests.append((col, lambda v, w=value:
                                  v is not None
                                  and _compare(v, w) <= 0))
                elif op == ">":
                    tests.append((col, lambda v, w=value:
                                  v is not None and _compare(v, w) > 0))
                else:
                    tests.append((col, lambda v, w=value:
                                  v is not None
                                  and _compare(v, w) >= 0))
            elif kind == "in":
                col = column_of(node[1])
                if col is None:
                    return None
                values = [constant_of(e) for e in node[2]]
                if any(v is _UNSUPPORTED or v is None for v in values):
                    return None     # NULL member: three-valued logic
                keys = {_gkey(v) for v in values}
                tests.append((col, lambda v, keys=keys:
                              v is not None and _gkey(v) in keys))
            elif kind == "like":
                col = column_of(node[1])
                if col is None:
                    return None
                pattern = constant_of(node[2])
                if pattern is _UNSUPPORTED:
                    return None
                if pattern is None:
                    tests.append((col, lambda v: False))
                else:
                    tests.append((col, lambda v, p=pattern:
                                  v is not None and bool(_like(v, p))))
            else:
                return None

        # -- select items ----------------------------------------------
        # items: ("const", value) | ("col", value_list) | ("agg", slot)
        items: list[tuple[str, Any]] = []
        agg_specs: list[tuple[str, list | None]] = []
        for item in stmt.items:
            if item[0] == "star":
                if item[1] is not None and item[1] not in names:
                    return None
                for name in table.columns:
                    items.append(("col", table.cols[name]))
                continue
            ast = item[1]
            if ast[0] == "agg":
                if ast[1] == "count*":
                    items.append(("agg", len(agg_specs)))
                    agg_specs.append(("count*", None))
                    continue
                col = column_of(ast[2])
                if col is None:
                    return None
                items.append(("agg", len(agg_specs)))
                agg_specs.append((ast[1], col))
                continue
            value = constant_of(ast)
            if value is not _UNSUPPORTED:
                items.append(("const", value))
                continue
            col = column_of(ast)
            if col is None:
                return None
            items.append(("col", col))

        gcols = []
        for term in stmt.group:
            col = column_of(term)
            if col is None:
                return None
            gcols.append(col)

        ocols = []
        if stmt.order and (gcols or agg_specs):
            # the grouped path below emits rows sorted on the full
            # group key; an ORDER BY that is an ASC prefix of the
            # GROUP BY terms is therefore a no-op and stays fast
            if (not gcols or len(stmt.order) > len(stmt.group)
                    or any(desc or term != gterm
                           for (term, desc), gterm
                           in zip(stmt.order, stmt.group))):
                return None     # genuine post-aggregate ordering
        else:
            for term, desc in stmt.order:
                col = column_of(term)
                if col is None:
                    return None
                ocols.append((col, desc))

        # -- filter: the surviving row positions -----------------------
        n = len(table.rowids)
        idx: list[int] | None = None
        for col, test in tests:
            if idx is None:
                idx = [i for i, v in enumerate(col) if test(v)]
            else:
                idx = [i for i in idx if test(col[i])]

        if ocols:
            # stable multi-term sort, last term first (see _order_rows)
            seq = list(range(n)) if idx is None else idx
            for col, desc in reversed(ocols):
                types = set(map(type, col))
                if types <= {int, float} or types == {str} \
                        or types == {bytes}:
                    # homogeneous column: plain compare == _sort_key
                    seq.sort(key=col.__getitem__, reverse=desc)
                else:
                    seq.sort(key=lambda i, col=col: _sort_key(col[i]),
                             reverse=desc)
            idx = seq

        if gcols:
            src = range(n) if idx is None else idx
            # raw stored values hash/compare like _gkey (1 and 1.0
            # collide, bools never reach storage)
            if len(gcols) == 1:
                g0 = gcols[0]
                keys = [(g0[i],) for i in src]
            elif len(gcols) == 2:
                g0, g1 = gcols
                keys = [(g0[i], g1[i]) for i in src]
            else:
                keys = [tuple(g[i] for g in gcols) for i in src]
            buckets: dict[tuple, list[int]] = {}
            order: list[tuple] = []
            for i, key in zip(src, keys):
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = bucket = []
                    order.append(key)
                bucket.append(i)
            # SQLite groups via a sort on the grouping terms, so its
            # output comes back ordered by group key — match that
            order.sort(key=lambda key: tuple(_sort_key(v)
                                             for v in key))
            out = []
            for key in order:
                members = buckets[key]
                first = members[0]
                values = []
                for kind, payload in items:
                    if kind == "col":
                        values.append(payload[first])
                    elif kind == "const":
                        values.append(payload)
                    else:
                        name, col = agg_specs[payload]
                        if name == "count*":
                            values.append(len(members))
                        else:
                            values.append(_aggregate(
                                name, [col[i] for i in members]))
                out.append(tuple(values))
            return out

        if agg_specs:
            if any(kind == "col" for kind, _payload in items):
                return None     # representative-row semantics
            aggvals = []
            for name, col in agg_specs:
                if name == "count*":
                    aggvals.append(n if idx is None else len(idx))
                else:
                    aggvals.append(_aggregate(
                        name, col if idx is None
                        else [col[i] for i in idx]))
            return [tuple(aggvals[payload] if kind == "agg"
                          else payload for kind, payload in items)]

        # plain projection
        m = n if idx is None else len(idx)
        if not items:
            return [()] * m
        columns = [payload if kind == "col" and idx is None
                   else [payload[i] for i in idx] if kind == "col"
                   else itertools.repeat(payload, m)
                   for kind, payload in items]
        return list(zip(*columns))

    def _exec_select(self, stmt, params) -> list[tuple]:
        if isinstance(stmt, _Compound):
            out: list[tuple] = []
            for select in stmt.selects:
                out.extend(self._exec_select(select, params))
            return out

        resolved: dict = {}
        fast = self._fast_select(stmt, params, resolved)
        if fast is not None:
            return fast
        if stmt.group:
            raise DatabaseError(
                "GROUP BY is supported only over plain columns of one "
                "table, with single-column filters and plain or "
                "aggregated columns selected")

        all_sources = []
        if stmt.source is not None:
            ref, alias = stmt.source
            all_sources.append(
                (self._resolve_source(ref, alias, params, resolved),
                 alias))
        joins = [(self._resolve_source(ref, alias, params, resolved),
                  alias, on)
                 for ref, alias, on in stmt.joins]
        all_sources += [(t, a) for t, a, _ in joins]

        # -- flat row layout: per table, its columns then its rowid ----
        offsets: list[int] = []
        offset = 0
        for table, _alias in all_sources:
            offsets.append(offset)
            offset += len(table.columns) + 1

        def resolver(qualifier, name):
            matches = []
            for index, (table, alias) in enumerate(all_sources):
                if qualifier is not None and qualifier != alias \
                        and qualifier != table.name:
                    continue
                base = offsets[index]
                if name in table.cols:
                    matches.append(base + table.columns.index(name))
                elif name == "rowid":
                    matches.append(base + len(table.columns))
                elif qualifier is not None:
                    raise DatabaseError(
                        f"no such column: {qualifier}.{name}")
            if not matches:
                raise DatabaseError(f"no such column: {name}")
            return matches[0]

        ctx = _CompileCtx(resolver)

        # expand select items
        item_fns: list = []
        agg_present = False
        for item in stmt.items:
            if item[0] == "star":
                for index, (table, alias) in enumerate(all_sources):
                    if item[1] is not None and item[1] != alias \
                            and item[1] != table.name:
                        continue
                    base = offsets[index]
                    for ci in range(len(table.columns)):
                        slot = base + ci
                        item_fns.append(
                            lambda row, env, slot=slot: row[slot])
            else:
                if _find_aggs(item[1]):
                    agg_present = True
                item_fns.append(_compile(item[1], ctx, allow_agg=True))

        where = (_compile(stmt.where, ctx)
                 if stmt.where is not None else None)
        order_fns = [(_compile(term, ctx, allow_agg=True), desc)
                     for term, desc in stmt.order]
        limit_fn = (_compile(stmt.limit, ctx)
                    if stmt.limit is not None else None)

        env = (params, ())

        rows = self._join_rows(all_sources[:1], joins)
        if where is not None:
            rows = [r for r in rows if _truthy(where(r, env)) is True]

        if agg_present:
            # whole-table aggregation: one output row over all input
            # rows, so ORDER BY has nothing to order
            aggvals = tuple(
                len(rows) if name == "count*"
                else _aggregate(name, [arg(row, env) for row in rows])
                for name, arg in ctx.aggs)
            representative = rows[0] if rows else (None,) * offset
            out = [tuple(fn(representative, (params, aggvals))
                         for fn in item_fns)]
        else:
            if order_fns:
                rows = _order_rows(rows, order_fns, env)
            out = [tuple(fn(row, env) for fn in item_fns)
                   for row in rows]
            if stmt.distinct:
                seen = set()
                unique = []
                for row in out:
                    key = tuple(_gkey(v) for v in row)
                    if key not in seen:
                        seen.add(key)
                        unique.append(row)
                out = unique

        if limit_fn is not None:
            limit = limit_fn(None, env)
            if limit is not None and int(limit) >= 0:
                out = out[:int(limit)]
        return out

    def _join_rows(self, source, joins):
        """FROM/JOIN evaluation: left-to-right hash joins on
        conjunctions of column equalities (matches SQLite's
        outer-scan-order output for these statement shapes)."""
        if not source:  # FROM-less SELECT: one empty row
            return [()]
        rows = source[0][0].scan()
        consumed = list(source)
        for table, alias, on in joins:
            pairs = _equality_pairs(on, consumed, table, alias)
            if pairs is None:
                raise DatabaseError(
                    "JOIN .. ON must be a conjunction of column "
                    "equalities")
            index: dict[tuple, list[tuple]] = {}
            for right in table.scan():
                key = tuple(_gkey(right[ri]) for _li, ri in pairs)
                if any(right[ri] is None for _li, ri in pairs):
                    continue
                index.setdefault(key, []).append(right)
            joined = []
            for left in rows:
                if any(left[li] is None for li, _ri in pairs):
                    continue
                key = tuple(_gkey(left[li]) for li, _ri in pairs)
                for right in index.get(key, ()):
                    joined.append(left + right)
            rows = joined
            consumed.append((table, alias))
        return rows


def _equality_pairs(on, consumed, table, alias):
    """Extract ``left_slot == right_slot`` pairs from a conjunction of
    column equalities, or ``None`` for any other ON clause."""
    pairs: list[tuple[int, int]] = []

    def left_slot(qualifier, name):
        offset = 0
        for t, a in consumed:
            if qualifier in (a, t.name) or (qualifier is None
                                            and name in t.cols):
                if name in t.cols:
                    return offset + t.columns.index(name)
                if name == "rowid":
                    return offset + len(t.columns)
            offset += len(t.columns) + 1
        return None

    def right_slot(qualifier, name):
        if qualifier is not None and qualifier not in (alias,
                                                       table.name):
            return None
        if name in table.cols:
            return table.columns.index(name)
        if name == "rowid":
            return len(table.columns)
        return None

    def walk(node) -> bool:
        if node[0] == "and":
            return walk(node[1]) and walk(node[2])
        if node[0] == "cmp" and node[1] == "=":
            a, b = node[2], node[3]
            if a[0] != "col" or b[0] != "col":
                return False
            for x, y in ((a, b), (b, a)):
                li = left_slot(x[1], x[2])
                ri = right_slot(y[1], y[2])
                if li is not None and ri is not None:
                    pairs.append((li, ri))
                    return True
            return False
        return False

    return pairs if walk(on) else None


def _derived_names(stmt) -> list[str]:
    """Output column names of a derived table: the item
    alias, else a plain column reference's name, else a positional
    placeholder (unreferenceable, like SQLite's expression names)."""
    if isinstance(stmt, _Compound):
        return _derived_names(stmt.selects[0])
    names: list[str] = []
    for item in stmt.items:
        if item[0] == "star":
            raise DatabaseError(
                "SELECT * inside a derived table is unsupported")
        ast, alias = item[1], item[2]
        if alias is not None:
            names.append(alias)
        elif ast[0] == "col":
            names.append(ast[2])
        else:
            names.append(f"__c{len(names)}")
    return names


def _order_rows(rows, order_fns, env):
    """Stable multi-term ORDER BY on the source-row scope."""
    indexed = list(range(len(rows)))
    for fn, desc in reversed(order_fns):
        keys = [_sort_key(fn(rows[i], env)) for i in indexed]
        paired = sorted(zip(keys, indexed), key=lambda kv: kv[0],
                        reverse=desc)
        indexed = [i for _k, i in paired]
    return [rows[i] for i in indexed]


# =========================================================================
# the server
# =========================================================================

class MemoryDatabaseServer(DatabaseServer):
    """A server of named :class:`MemoryDatabase` instances.

    Databases live for the lifetime of the server object; a
    process-global per-directory registry (:func:`memory_server_for`)
    lets the CLI reopen the same experiments across commands within one
    process.  There is no cross-process persistence and no shared query
    cache between processes — see ``docs/backends.md``.
    """

    backend_name = "memory"

    def __init__(self, node: int = 0):
        super().__init__(node)
        self._dbs: dict[str, MemoryDatabase] = {}

    def create_database(self, name: str) -> MemoryDatabase:
        quote_identifier(name)
        if name in self._dbs:
            raise ExperimentExistsError(
                f"database {name!r} already exists on node {self.node}")
        db = MemoryDatabase(name)
        self._dbs[name] = db
        return db

    def open_database(self, name: str) -> MemoryDatabase:
        try:
            db = self._dbs[name]
        except KeyError:
            raise NoSuchExperimentError(
                f"no database {name!r} on node {self.node}") from None
        db._reopen()
        return db

    def drop_database(self, name: str) -> None:
        try:
            self._dbs.pop(name).close()
        except KeyError:
            raise NoSuchExperimentError(
                f"no database {name!r} on node {self.node}") from None

    def list_databases(self) -> list[str]:
        return sorted(self._dbs)

    def close(self) -> None:
        """Close every database and drop all state.

        A closed server can still create fresh databases; the old
        contents are gone.  Used by shard retirement in the service
        layer and by test teardown via :func:`evict_memory_server` /
        :func:`clear_memory_servers`.
        """
        for db in self._dbs.values():
            db.close()
        self._dbs.clear()


_DIRECTORY_SERVERS: dict[str, MemoryDatabaseServer] = {}
_DIRECTORY_LOCK = threading.Lock()


def memory_server_for(directory: str) -> MemoryDatabaseServer:
    """The process-wide :class:`MemoryDatabaseServer` for a directory.

    The CLI resolves ``--backend memory`` through this registry so
    consecutive commands within one process (tests, scripted use) see
    the same experiments for a given ``--dbdir``.
    """
    import os
    key = os.path.abspath(str(directory))
    with _DIRECTORY_LOCK:
        server = _DIRECTORY_SERVERS.get(key)
        if server is None:
            server = MemoryDatabaseServer()
            _DIRECTORY_SERVERS[key] = server
        return server


def evict_memory_server(directory: str) -> bool:
    """Close and drop the registry's server for a directory.

    The registry itself never forgets a directory (that is what makes
    ``--backend memory`` usable across CLI commands within a process),
    so long-lived processes — the experiment service retiring shards,
    test teardown — must evict explicitly or the servers leak state
    for the lifetime of the process.  Returns whether a server was
    registered.
    """
    import os
    key = os.path.abspath(str(directory))
    with _DIRECTORY_LOCK:
        server = _DIRECTORY_SERVERS.pop(key, None)
    if server is None:
        return False
    server.close()
    return True


def clear_memory_servers() -> None:
    """Evict every registered per-directory server (test teardown)."""
    with _DIRECTORY_LOCK:
        servers = list(_DIRECTORY_SERVERS.values())
        _DIRECTORY_SERVERS.clear()
    for server in servers:
        server.close()
