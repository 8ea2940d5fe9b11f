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

One evaluator runs every statement, a column at a time: expressions
compile to functions from a frame of row positions to a column of
values.  A SELECT first narrows each source by the WHERE conjuncts that
read only its columns, hash-joins the surviving positions on the ON
equalities, filters the joined rows by the remaining conjuncts, and
then groups, orders, projects and limits by reading columns through
those positions.  A named table joined on its primary key alone is
probed by key instead of filtered and hashed.  A SELECT compiles into a
plan that holds no table and runs over the tables it is handed, and
every plan is stored under its SELECT's shape and its tables' layouts:
SELECTs that differ only in table names, ``?`` positions and derived
``UNION ALL``s share one plan, so a query source's N-run compound, or
its N per-run statements, compile once per layout, and a warm query
compiles nothing.  Consecutive operands of a plan that reads a row at
a time run it once, as one batch over all their rows.  GROUP BY
buckets rows one key column at a time, and the aggregates loop over a
group's values with no call per value.  UPDATE and DELETE select their
rows with the same WHERE evaluation.  ``INSERT ..
VALUES`` runs over a batch of parameter rows (``execute`` is a batch of
one): the VALUES compile once, and a batch that lands after the table's
last row is appended a column at a time.

Semantics deliberately mirror SQLite so the differential harness
(:mod:`repro.testing.differential`) can assert *byte-identical* results
across backends:

* column type affinity on storage (``INTEGER``/``REAL``/``TEXT``) —
  but no comparison affinity: ``2`` never equals ``'2'``, so emitters
  bind values in their column's type,
* integer division truncating toward zero, division by zero -> NULL,
* three-valued logic for NULL in WHERE/comparisons,
* the SQLite ordering of types (NULL < numbers < text),
* ``rowid`` as implicit insertion-order column, with ``INTEGER PRIMARY
  KEY`` columns acting as the rowid alias (scan order follows the key),
* the ``pb_*`` statistical aggregates with PostgreSQL-parity NULL
  semantics, computed by the very classes the SQLite backend registers
  as user aggregates (:data:`~repro.db.sqlite_backend.PB_AGGREGATES`).

Transactions follow the legacy ``sqlite3`` autocommit model the SQLite
backend runs under (``isolation_level=""``): DML implicitly opens a
transaction, DDL joins an open transaction but autocommits outside one,
``begin()`` opens one explicitly; ``commit()`` and ``rollback()`` end
it (there is no ``BEGIN``/``COMMIT`` statement text), and
``read_transaction()`` wraps a query in one it commits.  Rollback
replays an undo log, so :class:`~repro.db.schema.BatchContext` failure
semantics are identical.

``attachable_uri``/``attach`` return ``None``: cross-database readers
(the parallel executor's source elements, the query cache) take their
Python-row fallback paths, which the differential battery exercises.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
import operator
import re
import sqlite3
import threading
import weakref
from datetime import datetime
from typing import Any, Iterable, Sequence

from .. import faults as _faults
from ..core.errors import DatabaseError
from ..obs.metrics import count
from .backend import (Database, NamedDatabaseServer, _sql_summary,
                      quote_identifier)
from .sqlite_backend import PB_AGGREGATES

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


def _eq(a: Any, b: Any):
    """Three-valued ``=``: values of different type classes differ."""
    return None if a is None or b is None else a == b


def _ne(a: Any, b: Any):
    return None if a is None or b is None else a != b


def _ordering(op):
    """A three-valued ordering comparison: Python's within a type
    class (numbers, text, blobs), SQLite's type order across them."""
    def compare(a: Any, b: Any):
        if a is None or b is None:
            return None
        try:
            return op(a, b)
        except TypeError:
            return op(_rank(a), _rank(b))
    return compare


_lt, _le, _gt, _ge = map(_ordering, (operator.lt, operator.le,
                                     operator.gt, operator.ge))
_COMPARISONS = {"=": _eq, "<>": _ne, "<": _lt, "<=": _le, ">": _gt,
                ">=": _ge}


def _truthy(value: Any):
    """SQLite WHERE truth: NULL stays NULL, numbers by value."""
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return value != 0
    number = _text_to_number(value) if isinstance(value, str) else None
    return bool(number) if number is not None else False


def _or(a, b):
    """Three-valued OR of two truth values."""
    if a is True or b is True:
        return True
    return None if a is None or b is None else False


def _in(value, options):
    """Three-valued ``value IN (options)``."""
    if value is None:
        return None
    if any(_eq(value, other) for other in options):
        return True
    return None if None in options else False


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


_ARITHMETIC = {"+": _add, "-": _sub, "*": _mul, "/": _div, "%": _mod}


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
_AGGREGATE_NAMES = frozenset(("count", "sum", "avg", "min", "max",
                              *PB_AGGREGATES))

_NUMBERS = frozenset((int, float))


def _aggregate(name: str, values: list) -> Any:
    """Aggregate one group's values (``COUNT(*)`` is counted by the
    callers) in a single pass.

    SUM stays an integer until a float appears and is NULL over no
    rows, like SQLite's.  A ``pb_*`` aggregate steps and finalizes the
    class the SQLite backend registers for it, so its results are
    bit-identical across backends.  SUM and AVG add in row order, one
    value at a time, with a function call only for a value that is
    neither an int nor a float: their bit-for-bit contract with
    SQLite's sequential sums (builtin ``sum`` of floats compensates,
    from Python 3.12 on, and would round differently).
    """
    if name in PB_AGGREGATES:
        state = PB_AGGREGATES[name]()
        state.steps(values)
        return state.finalize()
    if name == "count":
        return len(values) - values.count(None)
    if name == "sum":
        acc, seen = 0, False
        for v in values:
            if v is None:
                continue
            seen = True
            if type(v) is not int and type(v) is not float:
                v = _num(v)
            if type(v) is float and type(acc) is int:
                acc = float(acc)
            acc += v
        return acc if seen else None
    if name == "avg":
        total, n = 0.0, 0
        for v in values:
            if v is None:
                continue
            total += (v if type(v) is float else float(v) if type(v) is int
                      else float(_num(v)))
            n += 1
        return total / n if n else None
    if name in ("min", "max"):
        present = [v for v in values if v is not None]
        if set(map(type, present)) <= _NUMBERS:
            # like the loop below, the builtin keeps the first extreme
            return (min if name == "min" else max)(present, default=None)
        better = _lt if name == "min" else _gt
        best = None
        for v in present:
            if best is None or better(v, best):
                best = v
        return best
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

class _Statement:
    """Base of the statement ASTs; a parsed top-level statement carries
    the number of ``?`` parameters it reads as ``n_params``."""
    __slots__ = ("n_params",)


class _CreateTable(_Statement):
    __slots__ = ("table", "columns", "primary_key", "temporary",
                 "if_not_exists")

    def __init__(self, table, columns, primary_key, temporary,
                 if_not_exists):
        self.table = table
        self.columns = columns          # [(name, decltype)]
        self.primary_key = primary_key
        self.temporary = temporary
        self.if_not_exists = if_not_exists


class _CreateIndex(_Statement):
    __slots__ = ()


class _AlterTable(_Statement):
    __slots__ = ("table", "action", "column", "decltype")

    def __init__(self, table, action, column, decltype=None):
        self.table = table
        self.action = action            # "add" | "drop"
        self.column = column
        self.decltype = decltype


class _DropTable(_Statement):
    __slots__ = ("table", "if_exists")

    def __init__(self, table, if_exists):
        self.table = table
        self.if_exists = if_exists


class _Insert(_Statement):
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


class _Update(_Statement):
    __slots__ = ("table", "sets", "where")

    def __init__(self, table, sets, where):
        self.table = table
        self.sets = sets                # [(col, expr)]
        self.where = where


class _Delete(_Statement):
    __slots__ = ("table", "where")

    def __init__(self, table, where):
        self.table = table
        self.where = where


class _Select(_Statement):
    """A SELECT.  ``form`` is its :func:`_form`, set on its first
    execution by :meth:`MemoryDatabase._plan`."""
    __slots__ = ("distinct", "items", "source", "joins", "where",
                 "group", "order", "limit", "form")

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
        self.form = None


class _Compound(_Statement):
    """A ``UNION ALL`` of SELECTs.  ``first`` is the index of its first
    ``?`` in the statement, and ``spans`` holds each operand's first
    ``?`` index, counted from ``first``, and ``?`` count."""
    __slots__ = ("selects", "spans", "first")

    def __init__(self, selects, spans, first):
        self.selects = selects
        self.spans = spans
        self.first = first


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
        stmt.n_params = self.n_params
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
        starts = [self.n_params]
        selects = [self.select()]
        while self.accept_kw("UNION"):
            self.expect_kw("ALL")  # plain UNION is not emitted
            starts.append(self.n_params)
            selects.append(self.select())
        if len(selects) == 1:
            return selects[0]
        if any(select.order or select.limit is not None
               for select in selects):
            # SQLite applies a trailing ORDER BY/LIMIT to the whole
            # compound and rejects one on an earlier operand
            raise DatabaseError(
                "ORDER BY or LIMIT on an operand of a compound SELECT")
        ends = starts[1:] + [self.n_params]
        return _Compound(selects, [(first - starts[0], end - first)
                                   for first, end in zip(starts, ends)],
                         starts[0])

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


#: the process's statement store, shared by every database: each
#: statement text's parse, and each SELECT shape's plans by table
#: layouts (:func:`_form`), under one bound and one lock
_PARSE_CACHE: dict[Any, Any] = {}
_PARSE_LOCK = threading.Lock()


def _stored(key, value):
    """The store's entry for ``key``, set to ``value`` if it has none:
    threads that built one key's entry at once share the first."""
    with _PARSE_LOCK:
        if len(_PARSE_CACHE) > 4096:
            _PARSE_CACHE.clear()
        return _PARSE_CACHE.setdefault(key, value)


def _parse(sql: str):
    stmt = _PARSE_CACHE.get(sql)
    if stmt is None:
        stmt = _stored(sql, _Parser(sql).parse())
    return stmt


# =========================================================================
# column-at-a-time evaluation
# =========================================================================

class _Frame:
    """The rows a statement reads, as positions into its sources:
    ``pos[k][i]`` is the position of row ``i``'s cells in source ``k``'s
    columns (``None`` for a source not joined yet).  ``pos`` itself is
    ``None`` for the all-NULL row an aggregate over no rows reads its
    bare columns from."""

    __slots__ = ("n", "pos")

    def __init__(self, n: int, pos: list | None):
        self.n = n
        self.pos = pos

    @classmethod
    def of_source(cls, width: int, k: int, rows) -> "_Frame":
        """The rows ``rows`` of source ``k`` alone."""
        pos: list = [None] * width
        pos[k] = rows
        return cls(len(rows), pos)

    def take(self, rows: Sequence[int]) -> "_Frame":
        """The frame of the given row indices, in their order."""
        if self.pos is None:
            return _Frame(len(rows), None)
        return _Frame(len(rows), [None if p is None else _at(p, rows)
                                  for p in self.pos])


#: a frame of one row over no sources (VALUES, LIMIT, FROM-less SELECT)
_ONE_ROW = _Frame(1, [])


class _Scope:
    """Name resolution over a statement's sources, ``(k, table, alias)``
    triples with ``k`` the source's slot in the frame.  Only the
    tables' names and columns are read: compiled code reads cells from
    the tables in ``env`` when it runs.  ``base`` is the index of the
    statement's first ``?`` in the parameters it is handed.  ``used``
    collects the ``(k, column)`` pairs compiled since it was reset,
    which routes each WHERE conjunct to the sources it reads."""

    __slots__ = ("sources", "base", "aggs", "used")

    def __init__(self, sources: list[tuple[int, "_Table", str | None]],
                 base: int = 0):
        self.sources = sources
        self.base = base
        self.aggs: list[tuple[str, Any]] = []   # (name, arg_fn | None)
        self.used: set[tuple[int, str]] = set()

    def lookup(self, qualifier, name):
        """``(k, column)`` of a column reference (``column`` ``None``
        for the rowid), or ``None`` when no source of this scope
        matches it."""
        for k, table, alias in self.sources:
            if qualifier is not None and qualifier != _ref_name(table,
                                                                alias):
                continue
            if name in table.cols:
                return k, name
            if name == "rowid":
                return k, None
            if qualifier is not None:
                raise DatabaseError(f"no such column: {qualifier}.{name}")
        return None

    def column(self, qualifier, name):
        """A compiled read of one column reference."""
        found = self.lookup(qualifier, name)
        if found is None:
            raise DatabaseError(
                f"no such column: "
                f"{name if qualifier is None else qualifier + '.' + name}")
        self.used.add((found[0], name))
        return _reader(*found)

    def star(self, qualifier) -> list:
        """Compiled reads of every column of the sources ``qualifier``
        names (all sources for a bare ``*``)."""
        fns = [_reader(k, name)
               for k, table, alias in self.sources
               if qualifier in (None, _ref_name(table, alias))
               for name in table.columns]
        if qualifier is not None and not any(
                qualifier == _ref_name(table, alias)
                for _k, table, alias in self.sources):
            raise DatabaseError(f"no such table: {qualifier}")
        return fns


def _ref_name(table: "_Table", alias: str | None) -> str:
    """The name a qualifier reads a source by: its alias if it has one
    (SQLite then no longer knows the table's own name), else the
    table's name."""
    return table.name if alias is None else alias


def _at(values: list, rows) -> list:
    """``values`` at the positions ``rows`` (a list or a range)."""
    if type(rows) is range:
        return values[rows.start:rows.stop]
    return list(map(values.__getitem__, rows))


def _reader(k: int, name: str | None):
    """Read column ``name`` (the rowids for ``None``) of source ``k``
    at the frame's rows, from the table ``env`` holds in slot ``k``."""
    def read(frame, env):
        pos = frame.pos
        if pos is None:
            return [None] * frame.n
        table = env[2][k]
        return _at(table.rowids if name is None else table.cols[name],
                   pos[k])
    return read


class _PerRow(list):
    """A ``?`` bound to different values in the operands of a batch, as
    a column over the batch's rows: each row holds the value its own
    operand binds, read like a column of the batch's one source."""


def _bound(value):
    """A bound value as SQLite binds it: a bool as the integer 0 or 1."""
    return int(value) if type(value) is bool else value


def _scalar(node, scope: _Scope):
    """A literal's or a ``?``'s value, read from ``env``: a
    :class:`_PerRow` for a ``?`` that varies over a batch's rows."""
    if node[0] == "lit":
        return lambda env, value=node[1]: value
    index = node[1] - scope.base
    return lambda env: _bound(env[0][index])


#: expression kinds whose values are truth values (True/False/NULL)
_PREDICATES = frozenset(("cmp", "isnull", "like", "in", "not", "and",
                         "or"))


def _never_null(node) -> bool:
    """Whether a predicate's truth values are never NULL: ``IS [NOT]
    NULL``, and ``NOT``, ``AND`` and ``OR`` of such predicates, whose
    ``AND`` and ``OR`` are then those of plain booleans."""
    kind = node[0]
    if kind == "isnull":
        return True
    if kind == "not":
        return _never_null(node[1])
    if kind in ("and", "or"):
        return _never_null(node[1]) and _never_null(node[2])
    return False


def _truth(node, fn):
    """``fn`` as a truth-value column (SQLite's WHERE truthiness)."""
    if node[0] in _PREDICATES:
        return fn
    return lambda frame, env: list(map(_truthy, fn(frame, env)))


def _pairwise(fn, left, right):
    """Apply ``fn`` row by row to two compiled operands."""
    return lambda frame, env: list(map(fn, left(frame, env),
                                       right(frame, env)))


def _compile(node, scope: _Scope, allow_agg: bool = False):
    """Compile an expression AST into ``f(frame, env) -> column``: one
    value per row of ``frame``.  ``env`` is ``(params, aggregates,
    tables)``: the parameters from the scope's first ``?`` on, one value
    column per aggregate of ``scope.aggs``, and the table of each
    source slot."""
    kind = node[0]
    if kind == "lit":
        value = node[1]
        return lambda frame, env: [value] * frame.n
    if kind == "param":
        get = _scalar(node, scope)

        def param(frame, env):
            value = get(env)
            if type(value) is _PerRow:
                return _at(value, frame.pos[0])
            return [value] * frame.n
        return param
    if kind == "col":
        return scope.column(node[1], node[2])
    if kind == "agg":
        if not allow_agg:
            raise DatabaseError("aggregate in illegal context")
        arg = None if node[2] is None else _value(node[2], scope)
        index = len(scope.aggs)
        scope.aggs.append((node[1], arg))
        return lambda frame, env: env[1][index]
    if kind in ("cmp", "bin"):
        fn = (_COMPARISONS if kind == "cmp" else _ARITHMETIC)[node[1]]
        left = _compile(node[2], scope, allow_agg)
        pairwise = _pairwise(fn, left, _compile(node[3], scope, allow_agg))
        if fn is not _eq or node[3][0] not in ("lit", "param"):
            return pairwise
        get = _scalar(node[3], scope)

        def equals(frame, env):
            # ``col = <one value>``: _eq's NULL rule in a comprehension
            value = get(env)
            if type(value) is _PerRow:
                return pairwise(frame, env)
            if value is None:
                return [None] * frame.n
            return [None if v is None else v == value
                    for v in left(frame, env)]
        return equals
    if kind == "like":
        return _pairwise(_like, _value(node[1], scope, allow_agg),
                         _value(node[2], scope, allow_agg))
    if kind == "cast":
        inner = _value(node[1], scope, allow_agg)
        target = node[2]
        return lambda frame, env: [_cast(v, target)
                                   for v in inner(frame, env)]
    if kind == "coalesce":
        fns = [_value(a, scope, allow_agg) for a in node[1]]

        def coalesce(frame, env):
            out = fns[0](frame, env)
            for fn in fns[1:]:
                if None in out:
                    out = [v if v is not None else w
                           for v, w in zip(out, fn(frame, env))]
            return out
        return coalesce
    if kind == "neg":
        inner = _compile(node[1], scope, allow_agg)
        return lambda frame, env: [None if v is None else -_num(v)
                                   for v in inner(frame, env)]
    if kind == "isnull":
        inner = _compile(node[1], scope, allow_agg)
        if node[2]:
            return lambda frame, env: [v is not None
                                       for v in inner(frame, env)]
        return lambda frame, env: [v is None for v in inner(frame, env)]
    if kind == "in":
        left = _compile(node[1], scope, allow_agg)
        options = [_compile(e, scope, allow_agg) for e in node[2]]

        def isin_rows(frame, env):
            columns = [fn(frame, env) for fn in options]
            return [_in(v, row) for v, row in zip(left(frame, env),
                                                  zip(*columns))]
        if not all(e[0] in ("lit", "param") for e in node[2]):
            return isin_rows
        getters = [_scalar(e, scope) for e in node[2]]

        def isin(frame, env):
            values = [get(env) for get in getters]
            if any(type(v) is _PerRow for v in values):
                return isin_rows(frame, env)
            keys = {v for v in values if v is not None}
            miss = None if None in values else False
            return [None if v is None else (v in keys) or miss
                    for v in left(frame, env)]
        return isin
    if kind == "not":
        inner = _truth(node[1], _compile(node[1], scope, allow_agg))
        return lambda frame, env: [None if t is None else not t
                                   for t in inner(frame, env)]
    if kind in ("and", "or"):
        left = _truth(node[1], _compile(node[1], scope, allow_agg))
        right = _truth(node[2], _compile(node[2], scope, allow_agg))
        if _never_null(node):
            # plain booleans combine in C
            both = operator.and_ if kind == "and" else operator.or_
            return lambda frame, env: list(map(both, left(frame, env),
                                               right(frame, env)))
        if kind == "or":
            return _pairwise(_or, left, right)
        # three-valued AND of truth values: ``a and b``, but NULL AND
        # FALSE is FALSE
        return lambda frame, env: [
            False if b is False else a and b
            for a, b in zip(left(frame, env), right(frame, env))]
    raise DatabaseError(f"cannot compile expression node {kind!r}")


def _value(node, scope: _Scope, allow_agg: bool = False):
    """Compile ``node`` where its result is read as a value — a select
    item, an aggregate argument, a CAST, COALESCE or LIKE operand: a
    predicate's truth values become SQLite's 1/0, NULL kept.  WHERE
    and ON read predicates through :func:`_truth` and keep booleans;
    arithmetic and comparisons already treat them as 1/0."""
    fn = _compile(node, scope, allow_agg)
    if node[0] not in _PREDICATES:
        return fn
    return lambda frame, env: [None if t is None else int(t)
                               for t in fn(frame, env)]


def _conjuncts(node) -> list:
    """The top-level AND terms of a WHERE clause."""
    if node is None:
        return []
    if node[0] == "and":
        return _conjuncts(node[1]) + _conjuncts(node[2])
    return [node]


def _where(frame: _Frame, tests: list, env) -> _Frame:
    """Narrow ``frame`` to the rows on which every compiled conjunct is
    true — the one WHERE evaluation of SELECT, UPDATE and DELETE."""
    for test in tests:
        if not frame.n:
            break
        # truth values are True, False or None: only True is kept
        keep = list(itertools.compress(range(frame.n), test(frame, env)))
        if len(keep) < frame.n:
            frame = frame.take(keep)
    return frame


def _tests(where, scope: _Scope) -> list[tuple[Any, set]]:
    """Each WHERE conjunct compiled to a truth-value column, with the
    ``(source, column)`` pairs it reads."""
    tests = []
    for node in _conjuncts(where):
        scope.used = set()
        tests.append((_truth(node, _compile(node, scope)), scope.used))
    return tests


def _join_keys(on, entries, k: int):
    """Compiled key reads of a ``JOIN .. ON`` clause, a conjunction of
    equalities between a column of an earlier source and one of source
    ``k``: ``(left reads, right reads, right column names)``."""
    earlier, joined = _Scope(entries[:k]), _Scope(entries[k:k + 1])
    left, right, names = [], [], []
    for node in _conjuncts(on):
        if node[0] != "cmp" or node[1] != "=" or node[2][0] != "col" \
                or node[3][0] != "col":
            break
        a, b = node[2], node[3]
        if earlier.lookup(a[1], a[2]) is None:
            a, b = b, a
        if earlier.lookup(a[1], a[2]) is None \
                or joined.lookup(b[1], b[2]) is None:
            break
        left.append(earlier.column(a[1], a[2]))
        right.append(joined.column(b[1], b[2]))
        names.append(b[2])
    else:
        return left, right, names
    raise DatabaseError("JOIN .. ON must be a conjunction of column "
                        "equalities")


def _pk_join(table: "_Table", keys: list):
    """Probe ``table``'s primary key with each value of ``keys``: the
    ``(left, right)`` row indices of the matches, left rows in order,
    each with at most one match."""
    left: list[int] = []
    right: list[int] = []
    for i, value in enumerate(keys):
        position = table.pk_position(value)
        if position is not None:
            left.append(i)
            right.append(position)
    return left, right


def _groupable(item) -> bool:
    """Whether a select item is a plain column, a constant or an
    aggregate of one column (the select list GROUP BY supports)."""
    if item[0] == "star":
        return True
    node = item[1]
    if node[0] == "agg":
        return node[2] is None or node[2][0] == "col"
    return node[0] in ("col", "lit", "param")


def _hash_join(left_keys: list[list], right_keys: list[list]):
    """Equality hash join of two key-column lists: the ``(left, right)``
    row indices of every pair whose keys are equal and not NULL, left
    rows in order, each with its matches in right-row order (SQLite's
    outer-scan order for these statement shapes).  Keys compare as
    tuples of stored values, which hash and compare as SQLite compares
    them."""
    index: dict[tuple, list[int]] = {}
    for j, key in enumerate(zip(*right_keys)):
        if None not in key:
            index.setdefault(key, []).append(j)
    left: list[int] = []
    right: list[int] = []
    for i, key in enumerate(zip(*left_keys)):
        matches = index.get(key)
        if matches:
            left.extend(itertools.repeat(i, len(matches)))
            right.extend(matches)
    return left, right


def _groups(frame: _Frame, fns: list, env) -> list[list[int]]:
    """Row indices of ``frame`` per distinct GROUP BY key, members in
    row order and groups ordered by key, ties by first row: SQLite
    groups by sorting on the grouping terms and emits its groups in
    that order.  The rows are bucketed by the first key column's
    values, each bucket by the next column's, and so on, so no key
    tuple is built per row.  A dict keys values as SQLite compares
    them: 1 and 1.0 are one key, 1 and '1' two."""
    groups: list = [range(frame.n)]
    keys: list[tuple] = [()]
    for fn in fns:
        column = fn(frame, env)
        refined, refined_keys = [], []
        for key, rows in zip(keys, groups):
            buckets: dict[Any, list[int]] = collections.defaultdict(list)
            # append each row to its value's bucket, in C: consume the
            # map of appends into a deque that keeps nothing
            collections.deque(map(list.append, map(
                buckets.__getitem__, _at(column, rows)), rows), maxlen=0)
            refined.extend(buckets.values())
            refined_keys.extend((*key, value) for value in buckets)
        groups, keys = refined, refined_keys
    order = sorted(range(len(groups)), key=lambda g: (
        tuple(map(_sort_key, keys[g])), groups[g][0]))
    return [groups[g] for g in order]


def _sort_order(keys: list, order: list[int], desc: bool) -> None:
    """Stable-sort row indices ``order`` by one ORDER BY key column."""
    types = set(map(type, keys))
    if types <= {int, float} or types == {str}:
        # homogeneous keys: plain comparison orders them like _sort_key
        order.sort(key=keys.__getitem__, reverse=desc)
    else:
        ranked = [_sort_key(v) for v in keys]
        order.sort(key=ranked.__getitem__, reverse=desc)


def _compile_values(exprs: list):
    """Compile a ``VALUES`` list once, into a function from a batch of
    parameter rows to one value column per expression: a ``?`` reads
    ``row[k]``, a literal is read once, and any other expression is
    evaluated row by row."""
    fns = []
    for node in exprs:
        if node[0] == "param":
            fns.append(lambda rows, get=operator.itemgetter(node[1]):
                       list(map(get, rows)))
        elif node[0] == "lit":
            fns.append(lambda rows, value=node[1]: [value] * len(rows))
        else:
            fn = _value(node, _Scope([]))
            fns.append(lambda rows, fn=fn: [
                fn(_ONE_ROW, (row, None, ()))[0] for row in rows])
    return lambda rows: [fn(rows) for fn in fns]


def _targets(table: "_Table", names: Sequence[str], sql: str) -> list[int]:
    """The column positions of an INSERT's target column names."""
    index = {name: i for i, name in enumerate(table.columns)}
    positions = []
    for name in names:
        i = index.get(name)
        if i is None:
            raise DatabaseError(
                f"table {table.name} has no column named {name} "
                f"[sql: {sql}]")
        positions.append(i)
    return positions


def _bindings_error(stmt, params) -> DatabaseError:
    return DatabaseError(
        f"Incorrect number of bindings supplied. The current statement "
        f"uses {stmt.n_params}, and there are {len(params)} supplied.")


# =========================================================================
# columnar table
# =========================================================================

class _Table:
    """One table: per-column value lists plus a parallel rowid list.

    ``version`` counts the changes of its rows: every insert, update
    and delete, and the undo of each, moves it on."""

    __slots__ = ("name", "columns", "types", "affinities", "cols",
                 "rowids", "primary_key", "rowid_is_pk",
                 "temporary", "_pk_map", "version", "__weakref__")

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
        self.temporary = temporary
        self._pk_map: dict | None = {} if primary_key else None
        self.version = 0

    def __len__(self) -> int:
        return len(self.rowids)

    @property
    def layout(self) -> tuple:
        """What a compiled plan reading this table depends on: the
        column names, in order, and the primary key."""
        return (tuple(self.columns), self.primary_key)

    @property
    def next_rowid(self) -> int:
        """The rowid SQLite gives a row inserted without one: one past
        the largest (``rowids`` is ascending), 1 in an empty table."""
        return self.rowids[-1] + 1 if self.rowids else 1

    # -- primary-key bookkeeping ----------------------------------------

    def pk_position(self, value) -> int | None:
        """The position of the row whose primary key is ``value``.  A
        NULL key matches no row: SQLite lets a key that is not an
        ``INTEGER PRIMARY KEY`` hold any number of NULLs."""
        if self.primary_key is None or value is None:
            return None
        return self._pk_index().get(value)

    def _pk_index(self) -> dict:
        if self._pk_map is None:
            column = self.cols[self.primary_key]
            # stored values key a dict as SQLite compares them: 1 and
            # 1.0 are one key, 1 and '1' two
            self._pk_map = {v: i for i, v in enumerate(column)
                            if v is not None}
        return self._pk_map

    def appends(self, keys: list | None) -> bool:
        """Whether rows with these converted primary keys (``None`` for
        a keyless table) all land after the last row, in order, with no
        conflict among them or with a stored row: an ``INTEGER PRIMARY
        KEY`` strictly increasing past the last rowid, any other key
        free of NULLs, duplicates and stored matches."""
        if keys is None:
            return True
        if self.rowid_is_pk:
            return (set(map(type, keys)) == {int}
                    and (not self.rowids or keys[0] > self.rowids[-1])
                    and all(map(operator.lt, keys, keys[1:])))
        stored = self._pk_index()
        return (None not in keys and len(set(keys)) == len(keys)
                and not any(map(stored.__contains__, keys)))

    def _pk_note_insert(self, value, position: int) -> None:
        if self._pk_map is not None:
            if position == len(self.rowids) - 1:
                self._pk_map[value] = position
            else:
                self._pk_map = None

    def invalidate(self) -> None:
        """Note a change of rows that may have moved primary keys."""
        self.version += 1
        if self.primary_key is not None:
            self._pk_map = None

    # -- mutation --------------------------------------------------------

    def insert_row(self, cells: list, key: int | None) -> int:
        """Insert one affinity-converted row, ``key`` the index of its
        primary-key cell; returns its rowid.  A NULL ``INTEGER PRIMARY
        KEY`` takes the next rowid, stored in its cell as on SQLite."""
        self.version += 1
        if self.rowid_is_pk:
            rowid = cells[key]
            if rowid is None:
                rowid = cells[key] = self.next_rowid
            elif type(rowid) is not int:
                raise DatabaseError("datatype mismatch")
            position = bisect.bisect_left(self.rowids, rowid)
        else:
            rowid = self.next_rowid
            position = len(self.rowids)
        if position == len(self.rowids):
            self.rowids.append(rowid)
            for name, value in zip(self.columns, cells):
                self.cols[name].append(value)
        else:
            self.rowids.insert(position, rowid)
            for name, value in zip(self.columns, cells):
                self.cols[name].insert(position, value)
        if key is not None:
            self._pk_note_insert(cells[key], position)
        return rowid

    def stored_columns(self, positions: list[int], values: list[list],
                       n: int) -> list[list]:
        """``n`` rows as one affinity-converted value list per column:
        ``values[j]`` for the column at ``positions[j]`` (the first, for
        a column named twice, as on SQLite), NULLs for the rest."""
        columns: list = [None] * len(self.columns)
        for i, column in zip(positions, values):
            if columns[i] is None:
                columns[i] = _store_column(
                    self.affinities[self.columns[i]], column)
        return [[None] * n if c is None else c for c in columns]

    def append_columns(self, columns: list[list], keys: list | None,
                       n: int) -> None:
        """Append ``n`` converted rows, one value list per column, that
        :meth:`appends` admits."""
        self.version += 1
        old_len = len(self.rowids)
        self.rowids.extend(keys if self.rowid_is_pk else range(
            self.next_rowid, self.next_rowid + n))
        for name, column in zip(self.columns, columns):
            self.cols[name].extend(column)
        if keys is not None and self._pk_map is not None:
            self._pk_map.update(zip(keys, range(old_len, old_len + n)))

    def truncate(self, length: int) -> None:
        """Drop every row from position ``length`` on (the undo of an
        append)."""
        for name in self.columns:
            del self.cols[name][length:]
        del self.rowids[length:]
        self.invalidate()

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

    @classmethod
    def derived(cls, name: str, names: list[str], columns: list[list],
                n: int) -> "_Table":
        """An anonymous table over computed columns, with rowids 1..n
        and no affinity conversion: a derived table, or the
        ``excluded`` row of an upsert."""
        table = cls(name, [(c, "") for c in names], None, True)
        table.cols = dict(zip(names, columns))
        table.rowids = list(range(1, n + 1))
        return table


# =========================================================================
# SELECT plans
# =========================================================================

def _refs(stmt: _Select) -> list[tuple[Any, str | None]]:
    """``(table name or subquery, alias)`` of FROM and each JOIN."""
    if stmt.source is None:
        return []
    return [stmt.source] + [(ref, alias) for ref, alias, _on in stmt.joins]


def _table_names(stmt: _Select) -> list[str]:
    """The distinct tables ``stmt`` and its derived SELECTs read, in
    order of first appearance: the tables a plan of ``stmt`` runs over
    (a derived ``UNION ALL`` finds its own)."""
    names: list[str] = []
    for ref, _alias in _refs(stmt):
        inner = ([ref] if isinstance(ref, str)
                 else _table_names(ref) if isinstance(ref, _Select)
                 else [])
        names.extend(name for name in inner if name not in names)
    return names


def _unions(stmt: _Select) -> list["_Compound"]:
    """The derived ``UNION ALL``s of ``stmt`` and of its derived
    SELECTs, in :func:`_refs` order, depth first: the ones a plan of
    ``stmt`` runs."""
    unions: list[_Compound] = []
    for ref, _alias in _refs(stmt):
        if isinstance(ref, _Compound):
            unions.append(ref)
        elif isinstance(ref, _Select):
            unions.extend(_unions(ref))
    return unions


def _derived(alias: str, names: list[str], result) -> "_Table":
    n, columns = result
    return _Table.derived(alias, names, columns, n)


class _Plan:
    """A compiled SELECT: its sources, the WHERE tests routed to one
    source (``local``) or run on the joined rows (``post``), the join
    keys and the joins that probe a primary key, the select items,
    GROUP BY, the aggregates, ORDER BY, LIMIT and DISTINCT.

    A plan holds no table.  It reads the tables it is run over, one per
    name of :func:`_table_names`, the derived ``UNION ALL``s it is run
    with, one per entry of :func:`_unions`, and the parameters from its
    first ``?`` on, so SELECTs that differ only in table names, ``?``
    positions and derived ``UNION ALL``s run one plan.  A plan that
    ``batches`` answers a row of its source on its own: it reads one
    named table and has no JOIN, GROUP BY, aggregate, ORDER BY, LIMIT
    or DISTINCT.  Run once over the rows of several operands' tables,
    one after another, it returns what it returns for each operand, in
    operand order (:func:`_batch`).  It is never changed after
    :meth:`compile`."""

    __slots__ = ("sources", "local", "post", "joins", "probed", "items",
                 "group", "aggs", "order", "limit", "distinct", "batches")

    @classmethod
    def compile(cls, stmt: _Select, names: list[str],
                tables: list["_Table"], base: int,
                unions: list["_Compound"]) -> "_Plan":
        """Compile ``stmt`` against the layouts of ``tables``, the
        tables of ``names``, with its ``?`` counted from index ``base``.
        A derived SELECT compiles into the plan; a derived ``UNION
        ALL``, the one at its position in ``unions``, runs through
        :meth:`MemoryDatabase._compound` with the parameters from its
        own first ``?`` on."""
        slots = {name: i for i, name in enumerate(names)}
        entries: list[tuple[int, _Table, str | None]] = []
        sources = []
        for k, (ref, alias) in enumerate(_refs(stmt)):
            if isinstance(ref, str):
                index = slots[ref]
                entries.append((k, tables[index], alias))
                sources.append(lambda db, tables, params, unions,
                               index=index: tables[index])
                continue
            columns = _derived_names(ref)
            entries.append((k, _Table.derived(
                alias, columns, [[] for _ in columns], 0), alias))
            if isinstance(ref, _Compound):
                index = next(i for i, u in enumerate(unions) if u is ref)
                sources.append(
                    lambda db, tables, params, unions, index=index,
                    offset=ref.first - base, alias=alias,
                    columns=columns: _derived(alias, columns, db._compound(
                        unions[index], params[offset:])))
            else:
                inner = cls.compile(ref, names, tables, base, unions)
                sources.append(
                    lambda db, tables, params, unions, inner=inner,
                    alias=alias, columns=columns: _derived(
                        alias, columns,
                        inner.run(db, tables, params, unions)))
        scope = _Scope(entries, base)

        plan = cls()
        plan.sources = sources
        plan.local = [[] for _ in entries]
        plan.post = []
        single_column = True
        for test, used in _tests(stmt.where, scope):
            read = {k for k, _name in used}
            if len(read) == 1:
                plan.local[read.pop()].append(test)
            else:
                plan.post.append(test)
            single_column = single_column and len(used) <= 1
        joins = [_join_keys(on, entries, k)
                 for k, (_ref, _alias, on) in enumerate(stmt.joins, 1)]
        plan.joins = [(left, right) for left, right, _names in joins]
        plan.probed = {
            k for k, (ref, _alias, _on) in enumerate(stmt.joins, 1)
            if isinstance(ref, str)
            and joins[k - 1][2] == [entries[k][1].primary_key]}
        plan.items = []
        for item in stmt.items:
            if item[0] == "star":
                plan.items.extend(scope.star(item[1]))
            else:
                plan.items.append(_value(item[1], scope, allow_agg=True))
        plan.group = [_compile(term, scope) for term in stmt.group]
        plan.order = [(_compile(term, scope, allow_agg=True), desc)
                      for term, desc in stmt.order]
        if stmt.group and (stmt.joins or not single_column or any(
                term[0] != "col" for term in stmt.group) or not all(
                _groupable(item) for item in stmt.items)):
            raise DatabaseError(
                "GROUP BY is supported only over plain columns of one "
                "table, with single-column filters and plain or "
                "aggregated columns selected")
        plan.aggs = scope.aggs
        plan.limit = (None if stmt.limit is None
                      else _compile(stmt.limit, _Scope([], base)))
        plan.distinct = stmt.distinct
        plan.batches = (len(entries) == 1 and isinstance(stmt.source[0], str)
                        and not (stmt.group or plan.aggs or stmt.order
                                 or stmt.distinct)
                        and stmt.limit is None)
        return plan

    def run(self, db: "MemoryDatabase", tables: list["_Table"], params,
            unions: list["_Compound"]) -> tuple[int, list[list]]:
        """Evaluate the plan over ``tables``, ``params`` and ``unions``
        into its row count and output columns: one SELECT's, or a
        batch's made by :func:`_batch`.

        Each source is first narrowed by the WHERE conjuncts that read
        only its columns; the equality hash join then pairs the
        surviving positions left to right, the remaining conjuncts
        filter the joined rows, and grouping, ordering, projection,
        DISTINCT and LIMIT read columns through those positions.  A
        named table joined on its primary key alone is not scanned:
        each left row probes the key, and the table's own conjuncts
        filter the matched rows only."""
        slots = [source(db, tables, params, unions)
                 for source in self.sources]
        width = len(slots)
        env = (params, None, slots)
        limit = None
        if self.limit is not None:
            value = self.limit(_ONE_ROW, env)[0]
            if value is not None and int(value) >= 0:
                limit = int(value)

        # -- filter and join --------------------------------------------
        rows = [None if k in self.probed else
                _where(_Frame.of_source(width, k, range(len(table))),
                       self.local[k], env).pos[k]
                for k, table in enumerate(slots)]
        frame = _Frame.of_source(width, 0, rows[0]) if rows else _ONE_ROW
        for k, (left_keys, right_keys) in enumerate(self.joins, 1):
            if k in self.probed:
                left_rows, right_rows = _pk_join(
                    slots[k], left_keys[0](frame, env))
                frame = frame.take(left_rows)
                frame.pos[k] = right_rows
                frame = _where(frame, self.local[k], env)
                continue
            right = _Frame.of_source(width, k, rows[k])
            left_rows, right_rows = _hash_join(
                [fn(frame, env) for fn in left_keys],
                [fn(right, env) for fn in right_keys])
            frame = frame.take(left_rows)
            frame.pos[k] = [rows[k][j] for j in right_rows]
        frame = _where(frame, self.post, env)

        # -- aggregate ----------------------------------------------------
        if self.group or self.aggs:
            if self.group:
                groups = _groups(frame, self.group, env)
                first = frame.take([g[0] for g in groups])
            else:
                groups = [range(frame.n)]
                first = frame.take([0]) if frame.n else _Frame(1, None)
            aggregates = []
            for name, arg in self.aggs:
                if arg is None:
                    aggregates.append([len(g) for g in groups])
                else:
                    values = arg(frame, env)
                    aggregates.append([_aggregate(name, _at(values, g))
                                       for g in groups])
            frame, env = first, (params, aggregates, slots)

        # -- order, limit, project ----------------------------------------
        picked = None
        if self.order:
            picked = list(range(frame.n))
            for fn, desc in reversed(self.order):
                _sort_order(fn(frame, env), picked, desc)
        if limit is not None and not self.distinct and limit < frame.n:
            picked = (list(range(frame.n)) if picked is None
                      else picked)[:limit]
        if picked is not None:
            frame = frame.take(picked)
            if env[1]:
                env = (params, [[column[i] for i in picked]
                                for column in env[1]], slots)
        columns = [fn(frame, env) for fn in self.items]
        n = frame.n
        if self.distinct:
            seen: set = set()
            keep = []
            for i, row in enumerate(zip(*columns)):
                if row not in seen:
                    seen.add(row)
                    keep.append(i)
            if limit is not None:
                keep = keep[:limit]
            if len(keep) < n:
                columns = [[column[i] for i in keep] for column in columns]
                n = len(keep)
        return n, columns


def _shape(select: _Select, first: int, names: list[str]):
    """The key under which SELECTs share plans: ``select``'s AST with
    each table name, in FROM and JOIN, in aliases and in qualifiers
    alike, replaced by its index in ``names``, literals keyed with
    their type, ``?`` numbered from ``first``, and each derived ``UNION
    ALL`` (whose operands have plans of their own) replaced by where its
    ``?`` start and its column names.  SELECTs of one key are then one
    text up to a renaming of their tables, under which every name
    resolves to the same source."""
    slots = {name: i for i, name in enumerate(names)}

    def source(ref):
        if isinstance(ref, str):
            return name(ref)
        if isinstance(ref, _Select):
            return key(ref)
        return ("union", ref.first - first, tuple(_derived_names(ref)))

    def name(identifier):
        index = slots.get(identifier)
        return identifier if index is None else ("table", index)

    def expr(node):
        if type(node) is list:
            return tuple(map(expr, node))
        if type(node) is not tuple:
            return node
        kind = node[0]
        if kind == "lit":
            return ("lit", type(node[1]), node[1])
        if kind == "param":
            return ("param", node[1] - first)
        if kind == "col":
            return ("col", name(node[1]), node[2])
        return (kind, *map(expr, node[1:]))

    def key(s) -> tuple:
        return (s.distinct,
                tuple(("star", name(item[1])) if item[0] == "star"
                      else ("expr", expr(item[1]), item[2])
                      for item in s.items),
                tuple((source(ref), name(alias))
                      for ref, alias in _refs(s)),
                tuple(expr(on) for _ref, _alias, on in s.joins),
                expr(s.where), expr(s.group),
                tuple((expr(term), desc) for term, desc in s.order),
                expr(s.limit))

    return key(select)


def _form(select: _Select, first: int) -> tuple[dict, list, list]:
    """``(plans, table names, derived UNION ALLs)`` of a SELECT whose
    first ``?`` is ``first``: ``plans`` is the store's entry for its
    :func:`_shape`, shared by every SELECT of that shape, which holds
    their plans by the layouts of the tables they read."""
    names = _table_names(select)
    return _stored(_shape(select, first, names), {}), names, _unions(select)


class _Columns(dict):
    """The columns of several tables of one layout, each joined up,
    table after table, when first read."""

    __slots__ = ("parts",)

    def __init__(self, parts: list["_Table"]):
        super().__init__()
        self.parts = parts

    def __missing__(self, name: str) -> list:
        column: list = []
        for table in self.parts:
            column += table.cols[name]
        self[name] = column
        return column


def _same(a, b) -> bool:
    """Whether two bound values read as one value: equal, of one type,
    and of one sign for floats (``-0.0`` equals ``0.0``)."""
    return a is b or (type(a) is type(b) and a == b and (
        type(a) is not float
        or math.copysign(1.0, a) == math.copysign(1.0, b)))


def _batch_table(parts: list["_Table"]) -> "_Table":
    """One table of the rows of ``parts``, table after table, whose
    columns are joined up when a plan first reads them."""
    table = _Table(parts[0].name, [], None, True)
    table.cols = _Columns(parts)
    table.rowids = list(itertools.chain.from_iterable(
        [t.rowids for t in parts]))
    return table


def _batch_params(operands: list[tuple], counts: list[int]) -> tuple:
    """The parameters one run of a plan over a batch's table
    (:func:`_batch_table`) reads, from each operand's parameters and
    row count: a ``?`` bound to one value in every operand reads that
    value, any other a :class:`_PerRow` of the operands' values."""
    return tuple(
        values[0] if all(_same(values[0], v) for v in values)
        else _PerRow(itertools.chain.from_iterable(
            map(itertools.repeat, map(_bound, values), counts)))
        for values in zip(*operands))


class _CompoundBatches:
    """How a ``UNION ALL`` runs on one database, kept from one
    execution to the next (:meth:`MemoryDatabase._compound`).

    ``batches`` holds ``(plan, spans, tables, unions, counts)`` per
    batch: ``spans`` are its operands' ``(first ?, ? count)``; a lone
    operand's ``tables`` and ``unions`` are its own and ``counts`` is
    ``None``, a longer batch's are its :func:`_batch_table`, none, and
    its operands' row counts.  ``parts`` are the tables whose rows
    those batch tables copy, with the ``versions`` they were copied at,
    and ``generation`` the catalogue's when the operands were
    planned."""

    __slots__ = ("generation", "batches", "parts", "versions")

    def __init__(self, generation: int, batches: list, parts: list):
        self.generation = generation
        self.batches = batches
        self.parts = parts
        self.versions = list(map(_VERSION, parts))

    def valid(self, generation: int) -> bool:
        return (generation == self.generation
                and list(map(_VERSION, self.parts)) == self.versions)


_VERSION = operator.attrgetter("version")

#: the ``UNION ALL``s a database keeps :class:`_CompoundBatches` of;
#: past it, the one kept longest goes
_COMPOUND_MEMO = 16


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
        super().__init__()
        self.path = f"memory://{name}"
        self._tables: dict[str, _Table] = {}
        self._in_txn = False
        self._undo: list = []
        self._closed = False
        self._last_rowcount = 0
        #: moved on by every DROP and ALTER, and by each undo of a
        #: CREATE, DROP or ALTER (see _record_ddl)
        self._generation = 0
        #: each recent _Compound's _CompoundBatches (see _compound)
        self._compounds: dict[_Compound, _CompoundBatches] = {}
        #: the batch tables those hold, by their parts and the parts'
        #: versions: compounds that batch the same tables share one
        self._batch_tables: weakref.WeakValueDictionary[
            tuple, _Table] = weakref.WeakValueDictionary()

    # -- transactions ----------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._in_txn

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
            self.temp_pool.forget()
            for fn in reversed(self._undo):
                fn()
            self._undo.clear()
            self._in_txn = False

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._compounds.clear()

    def _reopen(self) -> None:
        """Reset the closed flag (the server reopens live data)."""
        self._closed = False

    # -- statement execution ---------------------------------------------

    def _run_locked(self, sql: str, params: Any, many: bool,
                    fetch: str | None) -> tuple[Any, int]:
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
                self._last_rowcount = 0
                result = None
                if many:
                    # SQLite binds row by row: the rows before one of
                    # the wrong length are stored, then it raises
                    bad = next((i for i, row in enumerate(params)
                                if len(row) != stmt.n_params), None)
                    rows = params if bad is None else params[:bad]
                    if isinstance(stmt, _Insert) \
                            and stmt.values is not None:
                        self._exec_values(stmt, rows, sql)
                    else:
                        for row in rows:
                            self._execute_stmt(stmt, row, sql)
                    if bad is not None:
                        raise _bindings_error(stmt, params[bad])
                else:
                    if len(params) != stmt.n_params:
                        raise _bindings_error(stmt, params)
                    rows = self._execute_stmt(stmt, params, sql)
                    if fetch == "all":
                        result = rows if rows is not None else []
                    elif fetch == "one":
                        result = rows[0] if rows else None
                return result, self._last_rowcount
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

    def execute(self, sql: str, params: Sequence[Any] = ()) -> int:
        return self._run(sql, tuple(params))

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

    def tables_with_columns(self, names: Sequence[str],
                            columns: Sequence[str]) -> set[str]:
        """Answered from the table dict under one lock, no statement."""
        wanted = set(columns)
        with self._lock:
            tables = self._tables
            return {name for name in names
                    if name in tables and wanted <= tables[name].cols.keys()}

    def list_tables(self) -> list[str]:
        with self._lock:
            return sorted(self._tables)

    # -- statement dispatch ----------------------------------------------

    def _execute_stmt(self, stmt, params, sql: str):
        if isinstance(stmt, (_Select, _Compound)):
            return self._exec_select(stmt, params)
        if isinstance(stmt, _Insert):
            if stmt.values is not None:
                self._exec_values(stmt, [params], sql)
            else:
                self._exec_insert_select(stmt, params, sql)
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

    def _table(self, name: str) -> _Table:
        table = self._tables.get(name)
        if table is None:
            raise DatabaseError(f"no such table: {name}")
        return table

    # -- DDL --------------------------------------------------------------

    def _record_ddl(self, undo, *, moves: bool = True) -> None:
        """Note a CREATE, DROP or ALTER: the catalogue generation moves
        on now (unless not ``moves``), and again when its ``undo`` runs
        on rollback.  A CREATE does not move it: a compound is planned
        only over tables that exist, so none kept reads the new name,
        and the DROP that freed the name moved it already."""
        if moves:
            self._generation += 1

        def undo_ddl():
            undo()
            self._generation += 1
        self._record(undo_ddl)

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
        self._record_ddl(lambda: self._tables.pop(name, None),
                         moves=False)

    def _exec_drop(self, stmt: _DropTable) -> None:
        table = self._tables.pop(stmt.table, None)
        if table is None:
            if stmt.if_exists:
                return
            raise DatabaseError(f"no such table: {stmt.table}")
        name = stmt.table
        self._record_ddl(lambda: self._tables.__setitem__(name, table))

    def _exec_alter(self, stmt: _AlterTable, sql: str) -> None:
        # an ALTER, and its undo, move the table's version too: a batch
        # table copies its parts' columns, and one kept by versions
        # (see _compound_batches) must not outlive a column's change
        table = self._table(stmt.table)
        if stmt.action == "add":
            if stmt.column in table.cols:
                raise DatabaseError(
                    f"duplicate column name: {stmt.column} "
                    f"[sql: {sql}]")
            table.version += 1
            table.columns.append(stmt.column)
            table.types[stmt.column] = stmt.decltype or ""
            table.affinities[stmt.column] = _affinity(
                stmt.decltype or "")
            table.cols[stmt.column] = [None] * len(table)
            column = stmt.column

            def undo_add():
                table.version += 1
                table.columns.remove(column)
                table.types.pop(column, None)
                table.affinities.pop(column, None)
                table.cols.pop(column, None)
            self._record_ddl(undo_add)
        else:
            if stmt.column not in table.cols:
                raise DatabaseError(
                    f"no such column: {stmt.column} [sql: {sql}]")
            table.version += 1
            position = table.columns.index(stmt.column)
            values = table.cols.pop(stmt.column)
            table.columns.pop(position)
            decltype = table.types.pop(stmt.column)
            affinity = table.affinities.pop(stmt.column)
            column = stmt.column

            def undo_drop():
                table.version += 1
                table.columns.insert(position, column)
                table.types[column] = decltype
                table.affinities[column] = affinity
                table.cols[column] = values
            self._record_ddl(undo_drop)

    # -- DML --------------------------------------------------------------

    def _insert_cells(self, table: _Table, cells: list, key: int | None,
                      sql: str, conflict_sets, params) -> None:
        """Store one converted row, ``key`` the index of its primary-key
        cell: a key that matches a stored row is a UNIQUE error, or with
        ``conflict_sets`` an upsert of that row."""
        position = None if key is None else table.pk_position(cells[key])
        if position is not None:
            if conflict_sets is None:
                raise DatabaseError(
                    f"UNIQUE constraint failed: {table.name}."
                    f"{table.primary_key} [sql: {sql}]")
            # upsert: update the existing row in place; bare columns
            # read the existing row, ``excluded.col`` the new one
            excluded = _Table.derived("excluded", table.columns,
                                      [[v] for v in cells], 1)
            scope = _Scope([(0, table, None), (1, excluded, "excluded")])
            frame = _Frame(1, [[position], [0]])
            updates = [
                (column, _store_value(
                    table.affinities[column],
                    _compile(expr, scope)(
                        frame, (params, None, (table, excluded)))[0]))
                for column, expr in conflict_sets]
            undo: list[tuple[str, Any]] = []
            table.version += 1
            for column, value in updates:
                undo.append((column, table.cols[column][position]))
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

        rowid = table.insert_row(cells, key)

        def undo_insert():
            index = bisect.bisect_left(table.rowids, rowid)
            while index < len(table.rowids) \
                    and table.rowids[index] != rowid:
                index += 1
            if index < len(table.rowids):
                table.remove_position(index)
        self._record(undo_insert)
        self._last_rowcount += 1

    def _exec_values(self, stmt: _Insert, rows: list, sql: str) -> None:
        """``INSERT .. VALUES`` over a batch of parameter rows (``execute``
        runs a batch of one).  The target columns are resolved and the
        ``VALUES`` compiled once per batch, and each column is converted
        in one pass.  A batch that lands wholly after the table's last
        row is appended a column at a time under one undo record; any
        other goes row by row, in order, so the rows before a failing
        one stay stored as on SQLite."""
        self._begin_implicit()
        table = self._table(stmt.table)
        names = stmt.columns or table.columns
        if len(stmt.values) != len(names):
            raise DatabaseError(
                f"{len(names)} columns but {len(stmt.values)} values "
                f"[sql: {sql}]")
        positions = _targets(table, names, sql)
        n = len(rows)
        if not n:
            return
        columns = table.stored_columns(
            positions, _compile_values(stmt.values)(rows), n)
        key = (None if table.primary_key is None
               else table.columns.index(table.primary_key))
        keys = None if key is None else columns[key]
        if table.appends(keys):
            old_len = len(table)
            table.append_columns(columns, keys, n)
            self._record(lambda: table.truncate(old_len))
            self._last_rowcount += n
            return
        for cells, params in zip(zip(*columns), rows):
            self._insert_cells(table, list(cells), key, sql,
                               stmt.conflict_sets, params)

    def _exec_insert_select(self, stmt: _Insert, params, sql: str) -> None:
        """``INSERT .. SELECT`` as a column-wise append: one affinity
        pass per column and a single undo record.  Its targets are the
        query engine's temp and cache tables, so a primary-key or
        ``ON CONFLICT`` target is unsupported."""
        self._begin_implicit()
        table = self._table(stmt.table)
        if table.primary_key is not None or stmt.conflict_key is not None:
            raise DatabaseError(
                "INSERT .. SELECT into a table with a primary key is "
                f"unsupported [sql: {sql}]")
        names = stmt.columns or table.columns
        positions = _targets(table, names, sql)
        if len(set(positions)) != len(positions):
            raise DatabaseError(f"duplicate insert column [sql: {sql}]")
        m, values = self._select(stmt.select, params)
        if len(values) != len(names):
            raise DatabaseError(
                f"{len(names)} columns but {len(values)} selected "
                f"[sql: {sql}]")
        if not m:
            return
        columns = table.stored_columns(positions, values, m)
        old_len = len(table)
        table.append_columns(columns, None, m)
        self._record(lambda: table.truncate(old_len))
        self._last_rowcount += m

    def _matching(self, table: _Table, where, params):
        """The positions of ``table``'s rows an UPDATE or DELETE
        ``WHERE`` selects, the scope its expressions compile in and the
        environment they run in."""
        scope = _Scope([(0, table, None)])
        tests = [test for test, _used in _tests(where, scope)]
        env = (params, None, (table,))
        frame = _where(_Frame.of_source(1, 0, range(len(table))), tests,
                       env)
        return frame, scope, env

    def _exec_update(self, stmt: _Update, params, sql: str) -> None:
        self._begin_implicit()
        table = self._table(stmt.table)
        frame, scope, env = self._matching(table, stmt.where, params)
        rows = frame.pos[0]
        # every SET expression reads the old row
        updates = []
        for column, expr in stmt.sets:
            if column not in table.cols:
                raise DatabaseError(f"no such column: {column}")
            updates.append((column, _compile(expr, scope)(frame, env)))
        undo: list[tuple[str, list]] = []
        table.version += 1
        for column, values in updates:
            cells = table.cols[column]
            affinity = table.affinities[column]
            undo.append((column, [cells[p] for p in rows]))
            for p, value in zip(rows, values):
                cells[p] = _store_value(affinity, value)
            if column == table.primary_key:
                table.invalidate()
        self._last_rowcount += len(rows)
        if rows and undo:
            def undo_update():
                for column, old in reversed(undo):
                    cells = table.cols[column]
                    for p, value in zip(rows, old):
                        cells[p] = value
                table.invalidate()
            self._record(undo_update)

    def _exec_delete(self, stmt: _Delete, params, sql: str) -> None:
        self._begin_implicit()
        table = self._table(stmt.table)
        if stmt.where is None:
            # emptying a table (a pooled temp table's release) keeps
            # the rows for the undo log whole, not one removal each
            rowids = table.rowids[:]
            cols = [table.cols[c][:] for c in table.columns]
            table.truncate(0)
            self._last_rowcount += len(rowids)
            if rowids:
                def undo_empty():
                    table.rowids.extend(rowids)
                    for name, column in zip(table.columns, cols):
                        table.cols[name].extend(column)
                    table.invalidate()
                self._record(undo_empty)
            return
        frame, _scope, _env = self._matching(table, stmt.where, params)
        removed = [(p, *table.remove_position(p))
                   for p in reversed(frame.pos[0])]
        self._last_rowcount += len(removed)
        if removed:
            def undo_delete():
                for position, rowid, cells in reversed(removed):
                    table.restore_position(position, rowid, cells)
            self._record(undo_delete)

    # -- SELECT ------------------------------------------------------------

    def _exec_select(self, stmt, params) -> list[tuple]:
        n, columns = self._select(stmt, params)
        return list(zip(*columns)) if columns else [()] * n

    def _select(self, stmt, params) -> tuple[int, list[list]]:
        """Evaluate a SELECT or ``UNION ALL`` into its row count and
        output columns."""
        if isinstance(stmt, _Compound):
            return self._compound(stmt, params)
        plan, tables, unions = self._plan(stmt, 0)
        return plan.run(self, tables, params, unions)

    def _plan(self, select: _Select, first: int):
        """``(plan, tables, derived UNION ALLs)`` that run ``select``,
        whose first ``?`` is ``first``.  The plan is the one stored
        under its shape and its tables' layouts (:func:`_form`),
        compiled by the first SELECT with that key: SELECTs that differ
        only in table names, ``?`` positions and derived ``UNION ALL``s
        share it, so the per-run statements of a query source, or one
        text run again, compile once per layout."""
        form = select.form
        if form is None:
            form = select.form = _form(select, first)
        plans, names, unions = form
        tables = [self._table(name) for name in names]
        layouts = tuple([table.layout for table in tables])
        plan = plans.get(layouts)
        if plan is None:
            # the store is shared by every database
            with _PARSE_LOCK:
                plan = plans.get(layouts)
                if plan is None:
                    plan = _Plan.compile(select, names, tables, first,
                                         unions)
                    plans[layouts] = plan
                    count("db.plans_compiled")
        return plan, tables, unions

    def _compound(self, stmt: _Compound, params) -> tuple[int, list[list]]:
        """Evaluate a ``UNION ALL``, ``params`` counted from its first
        ``?``.  Each operand runs its :meth:`_plan`.  Consecutive
        operands of one plan that batches (:class:`_Plan`) form a batch,
        and the plan runs once per batch (``db.operand_batches``); every
        other operand is a batch of its own.  A query source's operands
        differ only in the run table they read and the run position they
        bind, so it runs one plan per stretch of runs of one layout.

        The batches, each batch's table and the columns joined into it
        are kept (:class:`_CompoundBatches`) until a DROP or ALTER, the
        undo of any DDL, or a change of a batched table's rows voids
        them: a ``UNION ALL`` run again over unchanged tables plans
        nothing and joins nothing.  Only the parameters are read anew.
        Compounds that batch the same tables at the same versions (a
        source run fused and element-wise) share each batch table and
        its joined columns."""
        kept = self._compounds.get(stmt)
        if kept is None or not kept.valid(self._generation):
            kept = self._compound_batches(stmt)
        parts = []
        for plan, spans, tables, unions, counts in kept.batches:
            count("db.operand_batches")
            if counts is None:
                first, n = spans[0]
                parts.append(plan.run(self, tables,
                                      params[first:first + n], unions))
            else:
                parts.append(plan.run(self, tables, _batch_params(
                    [params[first:first + n] for first, n in spans],
                    counts), unions))
        width = len(parts[0][1])
        if any(len(columns) != width for _n, columns in parts):
            raise DatabaseError(
                "SELECTs to the left and right of UNION ALL do not "
                "have the same number of result columns")
        if len(parts) == 1:
            return parts[0]
        return (sum(n for n, _columns in parts),
                [list(itertools.chain.from_iterable(
                    columns[j] for _n, columns in parts))
                 for j in range(width)])

    def _compound_batches(self, stmt: _Compound) -> _CompoundBatches:
        """Plan ``stmt``'s operands, batch them and keep the batches."""
        batches: list[tuple] = []
        for select, span in zip(stmt.selects, stmt.spans):
            plan, tables, unions = self._plan(select, stmt.first + span[0])
            if plan.batches and batches and batches[-1][0] is plan:
                batches[-1][1].append(span)
                batches[-1][2].append(tables[0])
            else:
                batches.append((plan, [span], tables, unions, None))
        parts: list[_Table] = []
        for i, (plan, spans, tables, _unions, _counts) in enumerate(
                batches):
            if len(spans) > 1:
                parts.extend(tables)
                key = (tuple(tables), tuple(map(_VERSION, tables)))
                table = self._batch_tables.get(key)
                if table is None:
                    table = self._batch_tables[key] = _batch_table(tables)
                batches[i] = (plan, spans, [table], [],
                              list(map(len, tables)))
        kept = _CompoundBatches(self._generation, batches, parts)
        memo = self._compounds
        memo.pop(stmt, None)
        if len(memo) >= _COMPOUND_MEMO:
            del memo[next(iter(memo))]
        memo[stmt] = kept
        return kept


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



# =========================================================================
# the server
# =========================================================================

class MemoryDatabaseServer(NamedDatabaseServer):
    """A server of named :class:`MemoryDatabase` instances.

    Databases live for the lifetime of the server object; a
    process-global per-directory registry (:func:`memory_server_for`)
    lets the CLI reopen the same experiments across commands within one
    process.  There is no cross-process persistence and no shared query
    cache between processes — see ``docs/backends.md``.
    """

    backend_name = "memory"

    def _new_database(self, name: str) -> MemoryDatabase:
        return MemoryDatabase(name)

    def open_database(self, name: str) -> MemoryDatabase:
        db = super().open_database(name)
        db._reopen()
        return db

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
