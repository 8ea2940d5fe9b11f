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
"""

from __future__ import annotations

import abc
import contextlib
import re
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from ..core.errors import DatabaseError

if TYPE_CHECKING:
    from .temptables import TempTablePool

__all__ = ["Database", "DatabaseServer", "quote_identifier"]

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


class Database(abc.ABC):
    """One open database holding one experiment (plus temp tables).

    Each handle owns the :class:`~repro.db.temptables.TempTablePool`
    its queries lease their temp tables from, as ``temp_pool``; a
    :meth:`rollback` makes the pool forget what it knows of them.
    """

    temp_pool: "TempTablePool"

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

    @abc.abstractmethod
    def commit(self) -> None:
        """Commit the current transaction."""

    def begin(self) -> None:
        """Start an explicit transaction, if the backend supports one.

        Backends without transaction support may leave this a no-op;
        batched writers then degrade to grouped-but-not-atomic
        statement execution.
        """

    def rollback(self) -> None:
        """Discard the current transaction.

        The default raises: a backend that cannot roll back must not
        silently pretend a failed batch was undone.
        """
        raise DatabaseError(
            f"{type(self).__name__} does not support rollback")

    @contextlib.contextmanager
    def read_transaction(self) -> Iterator[None]:
        """Run a query's statements as one transaction, closed on exit.

        A query only reads the experiment tables and writes its own
        temp tables.  Backends whose connections open transactions
        implicitly must not leave one open afterwards: an idle handle
        would keep the database's read lock and lock every writer out.
        Inside a transaction the caller already holds, this is a no-op.
        This default does nothing, for backends without implicit
        transactions.
        """
        yield

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
