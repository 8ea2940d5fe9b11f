"""Abstract storage backend interface.

The paper stores "all persistent data in an SQL database" (Section 4.2),
using PostgreSQL.  This module defines the small SQL surface perfbase
actually needs, so backends are swappable; the shipped implementation
(:mod:`repro.db.sqlite_backend`) uses SQLite — see DESIGN.md for why the
substitution preserves behaviour.

A :class:`DatabaseServer` hosts named experiment databases, mirroring a
PostgreSQL server instance ("A user can either run a personal database
server on his local workstation, or store his data on any connected
PostgreSQL server").  The parallel query executor of Section 4.3 runs one
independent server per simulated cluster node.

Both engines share one handle protocol: :class:`Database` owns the
statement choke point (:meth:`Database._run`, which counts every
statement and, under a tracer, wraps it in a ``db`` span), the query
transaction (:meth:`Database.read_transaction`), the handle's lock and
its temp-table pool.  An engine supplies only how one statement runs
(``_run_locked``), whether a transaction is open
(:attr:`Database.in_transaction`) and the transaction verbs.  The
in-process servers of both engines are one :class:`NamedDatabaseServer`.
"""

from __future__ import annotations

import abc
import contextlib
import re
import threading
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from ..core.errors import (DatabaseError, ExperimentExistsError,
                           NoSuchExperimentError)
from ..obs.metrics import REGISTRY
from ..obs.tracer import current_tracer

if TYPE_CHECKING:
    from .temptables import TempTablePool

__all__ = ["Database", "DatabaseServer", "NamedDatabaseServer",
           "quote_identifier"]

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def quote_identifier(name: str) -> str:
    """Validate-and-quote an SQL identifier.

    All identifiers perfbase generates come from validated variable names
    or internal counters, so a strict whitelist is safe and prevents any
    injection through crafted input files.
    """
    if not _IDENT_RE.match(name):
        raise DatabaseError(f"invalid SQL identifier {name!r}")
    return f'"{name}"'


def _sql_summary(sql: str, limit: int = 120) -> str:
    """Compact single-line form of a statement for span attributes:
    its words joined by single spaces, cut to ``limit`` characters
    (``limit`` >= 1) with a trailing ``…``.  Only the first ``limit``
    words are split off: they join to at least ``limit`` characters,
    so a statement with more is cut within them."""
    words = sql.split(None, limit)
    if len(words) > limit:
        return " ".join(words[:limit])[:limit - 1] + "…"
    text = " ".join(words)
    return text if len(text) <= limit else text[:limit - 1] + "…"


_STATEMENTS = REGISTRY.counter("db.statements")
_ROWS_FETCHED = REGISTRY.counter("db.rows_fetched")
_ROWS_AFFECTED = REGISTRY.counter("db.rows_affected")


def count_statement(fetch: str | None, result: Any, rowcount: int) -> int:
    """Count one finished statement and its rows on the process
    registry; returns the statement's row count."""
    if fetch == "all":
        rows = len(result)
    elif fetch == "one":
        rows = 0 if result is None else 1
    else:
        rows = max(rowcount, 0)
    _STATEMENTS.inc()
    (_ROWS_FETCHED if fetch else _ROWS_AFFECTED).inc(rows)
    return rows


class Database(abc.ABC):
    """One open database holding one experiment (plus temp tables).

    Each handle owns the :class:`~repro.db.temptables.TempTablePool`
    its queries lease their temp tables from, as ``temp_pool``; a
    :meth:`rollback` makes the pool forget what it knows of them.
    Statements and transaction state are serialised on the handle's
    ``_lock``.
    """

    temp_pool: "TempTablePool"

    def __init__(self) -> None:
        # temptables imports this module
        from .temptables import TempTablePool
        self._lock = threading.RLock()
        self.temp_pool = TempTablePool()
        #: queries inside read_transaction, and whether the first began it
        self._queries = 0
        self._query_began = False

    # -- the statement choke point -----------------------------------------

    @abc.abstractmethod
    def _run_locked(self, sql: str, params: Any, many: bool,
                    fetch: str | None) -> tuple[Any, int]:
        """Run one statement under :attr:`_lock`: ``params`` is one
        parameter tuple, or a list of them with ``many``; ``fetch`` is
        ``"all"``, ``"one"`` or ``None``.  Returns the fetched rows
        (``None`` without ``fetch``) and the statement's rowcount;
        engine errors are raised as :class:`DatabaseError` naming the
        statement."""

    def _run(self, sql: str, params: Any, *, many: bool = False,
             fetch: str | None = None):
        """Single choke point for statement execution.

        Counts the statement and its rows; only when a tracer is active
        is the statement also wrapped in a ``db`` span, so a traced
        statement counts exactly as an untraced one.  Returns the
        fetched rows, or the affected-row count of a statement that
        fetches none.
        """
        tracer = current_tracer()
        if tracer is None:
            result, rowcount = self._run_locked(sql, params, many, fetch)
            rows = count_statement(fetch, result, rowcount)
            return result if fetch else rows
        op = ("db.executemany" if many
              else f"db.fetch{fetch}" if fetch else "db.execute")
        with tracer.span(op, kind="db", sql=_sql_summary(sql)) as span:
            result, rowcount = self._run_locked(sql, params, many, fetch)
            rows = span.attributes["rows"] = count_statement(
                fetch, result, rowcount)
            return result if fetch else rows

    @abc.abstractmethod
    def execute(self, sql: str, params: Sequence[Any] = ()) -> int:
        """Run a statement without result rows; returns the rows it
        inserted, updated or deleted (0 for DDL)."""

    @abc.abstractmethod
    def executemany(self, sql: str,
                    rows: Iterable[Sequence[Any]]) -> None:
        """Run a parameterised statement for many rows."""

    @abc.abstractmethod
    def fetchall(self, sql: str,
                 params: Sequence[Any] = ()) -> list[tuple]:
        """Run a query and return all rows."""

    @abc.abstractmethod
    def fetchone(self, sql: str,
                 params: Sequence[Any] = ()) -> tuple | None:
        """Run a query and return the first row (or ``None``)."""

    @abc.abstractmethod
    def table_exists(self, name: str) -> bool:
        """Whether a table of this name exists."""

    @abc.abstractmethod
    def table_columns(self, name: str) -> list[str]:
        """Column names of a table, in declaration order."""

    @abc.abstractmethod
    def tables_with_columns(self, names: Sequence[str],
                            columns: Sequence[str]) -> set[str]:
        """Those of ``names`` that are tables holding every one of
        ``columns``, in at most one statement however many names."""

    def drop_table(self, name: str) -> None:
        """Drop a table if it exists; a temp table this handle keeps
        between queries leaves its :attr:`temp_pool`."""
        self.temp_pool.evict(name)
        self.execute(f"DROP TABLE IF EXISTS {quote_identifier(name)}")

    @abc.abstractmethod
    def list_tables(self) -> list[str]:
        """All table names in the database."""

    # -- transactions -------------------------------------------------------

    @property
    @abc.abstractmethod
    def in_transaction(self) -> bool:
        """Whether a transaction is open on this handle."""

    @abc.abstractmethod
    def commit(self) -> None:
        """Commit the current transaction."""

    @abc.abstractmethod
    def begin(self) -> None:
        """Open an explicit transaction (no-op if one is already open),
        so DDL early in a batch joins it instead of autocommitting."""

    @abc.abstractmethod
    def rollback(self) -> None:
        """Discard the current transaction."""

    @contextlib.contextmanager
    def read_transaction(self) -> Iterator[None]:
        """Run a query's statements as one transaction, closed on exit.

        A query only reads the experiment tables and writes its own
        temp tables.  Without this its first DML would open a
        transaction implicitly that nothing ends: on SQLite the idle
        handle would keep its read lock on the database file and every
        other writer's commit would wait out the busy timeout; on the
        columnar engine its undo log would keep every dropped temp
        table alive, and a later failed batch would roll the query's
        temp tables back into the experiment.  The transaction is
        deferred, so it takes no write lock on the experiment tables,
        and the query's DDL joins it instead of committing statement by
        statement.

        Only the first query to enter begins the transaction, and only
        when none is open: inside a transaction the caller holds, this
        neither commits nor ends it.  Queries that run at once on this
        handle share the transaction, and the last to finish commits
        it: the first committing would leave the others' later
        statements (a teardown ``DELETE``) in an implicit transaction
        that nothing ends.
        """
        with self._lock:
            if not self._queries:
                self._query_began = not self.in_transaction
                if self._query_began:
                    self.begin()
            self._queries += 1
        try:
            yield
        finally:
            with self._lock:
                self._queries -= 1
                if not self._queries and self._query_began \
                        and self.in_transaction:
                    self.commit()

    @abc.abstractmethod
    def close(self) -> None:
        """Close the connection."""

    # -- cross-database access (Fig. 3 data paths) -------------------------

    @property
    def attachable_uri(self) -> str | None:
        """URI under which other connections can attach this database
        for direct SQL reads (``None`` if not supported)."""
        return None

    def attach(self, other: "Database") -> str | None:
        """Make ``other``'s tables readable from this connection.

        Returns the schema alias to prefix table names with, or
        ``None`` when direct attachment is impossible (callers then
        fall back to fetching rows through Python).  This is the
        in-process stand-in for the paper's remote database access
        "via sockets" (Section 4.3).
        """
        return None

    # -- conveniences shared by all backends ------------------------------

    def create_table(self, name: str,
                     columns: Sequence[tuple[str, str]],
                     *, temporary: bool = False,
                     primary_key: str | None = None) -> None:
        """Create a table from ``(column, sqltype)`` pairs."""
        defs = []
        for col, sqltype in columns:
            d = f"{quote_identifier(col)} {sqltype}"
            if primary_key == col:
                d += " PRIMARY KEY"
            defs.append(d)
        kind = "TEMPORARY TABLE" if temporary else "TABLE"
        self.execute(
            f"CREATE {kind} {quote_identifier(name)} ({', '.join(defs)})")

    def create_index(self, name: str, table: str,
                     columns: Sequence[str]) -> None:
        """Create index ``name`` on ``table`` unless it exists."""
        self.execute(
            f"CREATE INDEX IF NOT EXISTS {quote_identifier(name)} ON "
            f"{quote_identifier(table)} "
            f"({', '.join(map(quote_identifier, columns))})")

    def add_column(self, table: str, column: str, sqltype: str) -> None:
        """Add a column, NULL in every row, to ``table``."""
        self.execute(f"ALTER TABLE {quote_identifier(table)} "
                     f"ADD COLUMN {quote_identifier(column)} {sqltype}")

    def drop_column(self, table: str, column: str) -> None:
        """Remove a column and its values from ``table``."""
        self.execute(f"ALTER TABLE {quote_identifier(table)} "
                     f"DROP COLUMN {quote_identifier(column)}")

    def insert_rows(self, name: str, columns: Sequence[str],
                    rows: Iterable[Sequence[Any]]) -> None:
        cols = ", ".join(quote_identifier(c) for c in columns)
        marks = ", ".join(["?"] * len(columns))
        self.executemany(
            f"INSERT INTO {quote_identifier(name)} ({cols}) "
            f"VALUES ({marks})", rows)

    def count_rows(self, name: str) -> int:
        row = self.fetchone(
            f"SELECT COUNT(*) FROM {quote_identifier(name)}")
        return int(row[0]) if row else 0


class DatabaseServer(abc.ABC):
    """A host of named experiment databases.

    ``node`` identifies which (possibly simulated) cluster node the
    server runs on; the default single-server setup uses node 0.
    """

    #: storage-backend family this server provides; recorded in
    #: ``pb_meta`` at experiment creation and shown by ``perfbase info``
    backend_name = "sqlite"

    #: whether every :meth:`open_database` call returns an independent
    #: connection (so several can safely run transactions concurrently).
    #: Servers that hand out one shared handle per database must leave
    #: this False — pools built on top (the experiment service) then
    #: serialise whole operations per database instead of interleaving
    #: transactions on the shared connection.
    independent_connections = False

    def __init__(self, node: int = 0):
        self.node = node

    @abc.abstractmethod
    def create_database(self, name: str) -> Database:
        """Create a new, empty database; fails if it exists."""

    @abc.abstractmethod
    def open_database(self, name: str) -> Database:
        """Open an existing database; fails if missing."""

    @abc.abstractmethod
    def drop_database(self, name: str) -> None:
        """Destroy a database and its data."""

    @abc.abstractmethod
    def list_databases(self) -> list[str]:
        """Names of all databases on this server."""

    def has_database(self, name: str) -> bool:
        return name in self.list_databases()


class NamedDatabaseServer(DatabaseServer):
    """An in-process server: its databases live in a dict keyed by
    name for as long as the server object, and every
    :meth:`open_database` returns the one shared handle."""

    def __init__(self, node: int = 0):
        super().__init__(node)
        self._dbs: dict[str, Database] = {}

    @abc.abstractmethod
    def _new_database(self, name: str) -> Database:
        """A fresh, empty database for ``name``."""

    def create_database(self, name: str) -> Database:
        quote_identifier(name)
        if name in self._dbs:
            raise ExperimentExistsError(
                f"database {name!r} already exists on node {self.node}")
        db = self._dbs[name] = self._new_database(name)
        return db

    def open_database(self, name: str) -> Database:
        try:
            return self._dbs[name]
        except KeyError:
            raise NoSuchExperimentError(
                f"no database {name!r} on node {self.node}") from None

    def drop_database(self, name: str) -> None:
        try:
            self._dbs.pop(name).close()
        except KeyError:
            raise NoSuchExperimentError(
                f"no database {name!r} on node {self.node}") from None

    def list_databases(self) -> list[str]:
        return sorted(self._dbs)
