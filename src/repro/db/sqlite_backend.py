"""SQLite implementation of the storage backend.

Substitutes the paper's PostgreSQL server (see DESIGN.md).  Two server
flavours are provided:

* :class:`SQLiteServer` — file-backed; each experiment database is one
  ``<name>.db`` file below a directory, which plays the role of a
  PostgreSQL cluster directory.
* :class:`MemoryServer` — fully in-memory, used by tests and by the
  simulated cluster nodes of :mod:`repro.parallel` where dozens of
  short-lived "servers" are spun up.

SQLite releases the GIL while executing C-level statements, so running
query elements on several :class:`MemoryServer` instances from a thread
pool yields real concurrency for the parallel-query experiments.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import pathlib
import sqlite3
import threading
from typing import Any, Iterable, Iterator, Sequence

from .. import faults as _faults
from ..core.errors import (DatabaseError, ExperimentExistsError,
                           NoSuchExperimentError)
from ..obs.tracer import current_tracer
from .backend import Database, DatabaseServer, quote_identifier
from .retry import DEFAULT_POLICY

__all__ = ["SQLiteDatabase", "SQLiteServer", "MemoryServer"]


class _Variance:
    """Sample variance via Welford's online algorithm (stable)."""

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def step(self, value):
        if value is None:
            return
        self.n += 1
        delta = float(value) - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (float(value) - self.mean)

    def finalize(self):
        # PostgreSQL (the paper's backend) yields NULL for the sample
        # variance of fewer than two rows; mirror that instead of 0.0.
        if self.n < 2:
            return None
        return self.m2 / (self.n - 1)


class _Stddev(_Variance):
    def finalize(self):
        var = super().finalize()
        return None if var is None else var ** 0.5


class _Median:
    def __init__(self):
        self.values: list[float] = []

    def step(self, value):
        if value is not None:
            self.values.append(float(value))

    def finalize(self):
        if not self.values:
            return None
        self.values.sort()
        n = len(self.values)
        mid = n // 2
        if n % 2:
            return self.values[mid]
        return 0.5 * (self.values[mid - 1] + self.values[mid])


class _Product:
    def __init__(self):
        self.product = 1.0
        self.seen = False

    def step(self, value):
        if value is not None:
            self.seen = True
            self.product *= float(value)

    def finalize(self):
        return self.product if self.seen else None


def _adapt_datetime(value: datetime.datetime) -> str:
    return value.strftime("%Y-%m-%d %H:%M:%S.%f")


sqlite3.register_adapter(datetime.datetime, _adapt_datetime)


def _sql_summary(sql: str, limit: int = 120) -> str:
    """Compact single-line form of a statement for span attributes."""
    text = " ".join(sql.split())
    return text if len(text) <= limit else text[:limit - 1] + "…"


def _to_uri(path: str) -> str:
    """URI form of a database path (private memory db stays private)."""
    if path == ":memory:":
        return "file::memory:"
    if path.startswith("file:"):
        return path
    return f"file:{path}"


class SQLiteDatabase(Database):
    """A :class:`Database` over one sqlite3 connection.

    The connection is usable from multiple threads; a lock serialises
    statement execution per database (different databases run truly in
    parallel, which matches the one-server-per-node model of the paper's
    Fig. 3).

    With ``shared_name`` the database is created as a *shared-cache
    in-memory* database: other connections in the process can
    :meth:`attach` it and read its tables directly in SQL — the
    in-process equivalent of the paper's socket access to the frontend
    database server.  File-backed databases are always attachable.

    ``autocommit`` makes every statement its own transaction.  Scratch
    databases (the cluster node servers) use it so the read locks their
    statements take on *attached* databases are released at statement
    end — a lingering implicit transaction would otherwise block
    writers of the attached experiment database (e.g. the query cache)
    for as long as the connection stays idle.
    """

    def __init__(self, path: str = ":memory:", *,
                 shared_name: str | None = None,
                 autocommit: bool = False,
                 busy_timeout_ms: int = 5000):
        if shared_name is not None:
            self.uri = f"file:{shared_name}?mode=memory&cache=shared"
        else:
            self.uri = _to_uri(path)
        self._conn = sqlite3.connect(
            self.uri, uri=True, check_same_thread=False,
            isolation_level=None if autocommit else "")
        self._conn.execute("PRAGMA journal_mode=MEMORY")
        self._conn.execute("PRAGMA synchronous=OFF")
        # cross-process writers block on the file lock for a bounded
        # time instead of failing instantly with "database is locked";
        # in-process table locks (shared cache) are handled by the
        # retry policy of repro.db.retry instead
        self._conn.execute(
            f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
        self.busy_timeout_ms = int(busy_timeout_ms)
        self._lock = threading.RLock()
        self.path = path
        self._attached: dict[str, str] = {}
        self._register_aggregates()

    @property
    def attachable_uri(self) -> str | None:
        if self.uri == "file::memory:":
            return None  # private memory database
        return self.uri

    def attach(self, other) -> str | None:
        uri = getattr(other, "attachable_uri", None)
        if uri is None:
            return None
        with self._lock:
            alias = self._attached.get(uri)
            if alias is not None:
                return alias
            alias = f"pbatt{len(self._attached)}"
            # single quotes in the URI (e.g. an apostrophe in the
            # cluster directory name) must be doubled inside the
            # SQL string literal
            escaped = uri.replace("'", "''")

            def _attach() -> None:
                if _faults.ACTIVE is not None:
                    _faults.ACTIVE.check("db.attach", db=self.path,
                                         target=uri)
                self._conn.execute(
                    f"ATTACH DATABASE '{escaped}' AS {alias}")
            try:
                # a lock held briefly by another connection must not
                # permanently degrade this one to row-shipping
                DEFAULT_POLICY.run(_attach, site="db.attach")
            except sqlite3.Error:
                return None
            self._attached[uri] = alias
            return alias

    def _register_aggregates(self) -> None:
        """Register the statistical aggregates PostgreSQL has natively
        (``stddev``, ``variance``) plus ``median`` and ``product`` so the
        query operators can run inside the SQL engine (Section 4.2 of
        the paper: SQL-side processing beats per-row Python)."""
        self._conn.create_aggregate("pb_variance", 1, _Variance)
        self._conn.create_aggregate("pb_stddev", 1, _Stddev)
        self._conn.create_aggregate("pb_median", 1, _Median)
        self._conn.create_aggregate("pb_product", 1, _Product)

    def _run(self, sql: str, params: Any, *, many: bool = False,
             fetch: str | None = None):
        """Single choke point for statement execution.

        Serialises on the per-database lock, maps sqlite errors, and —
        only when a tracer is active — wraps the statement in a ``db``
        span with row counters, so the disabled path stays exactly the
        pre-instrumentation code.
        """
        tracer = current_tracer()
        if tracer is None:
            with self._lock:
                try:
                    if _faults.ACTIVE is not None:
                        _faults.ACTIVE.check("db.run", db=self.path,
                                             sql=_sql_summary(sql))
                    if many:
                        self._conn.executemany(sql, params)
                        return None
                    cur = self._conn.execute(sql, params)
                    if fetch == "all":
                        return cur.fetchall()
                    if fetch == "one":
                        return cur.fetchone()
                    return None
                except sqlite3.Error as exc:
                    raise DatabaseError(f"{exc} [sql: {sql}]") from exc
        op = ("db.executemany" if many
              else f"db.fetch{fetch}" if fetch else "db.execute")
        with tracer.span(op, kind="db", sql=_sql_summary(sql)) as span:
            with self._lock:
                try:
                    if _faults.ACTIVE is not None:
                        _faults.ACTIVE.check("db.run", db=self.path,
                                             sql=_sql_summary(sql))
                    cur = (self._conn.executemany(sql, params) if many
                           else self._conn.execute(sql, params))
                    result = (cur.fetchall() if fetch == "all"
                              else cur.fetchone() if fetch == "one"
                              else None)
                except sqlite3.Error as exc:
                    raise DatabaseError(f"{exc} [sql: {sql}]") from exc
            if fetch == "all":
                rows = len(result)
            elif fetch == "one":
                rows = 0 if result is None else 1
            else:
                rows = max(cur.rowcount, 0)
            span.attributes["rows"] = rows
            metrics = tracer.metrics
            metrics.counter("db.statements").inc()
            if fetch:
                metrics.counter("db.rows_fetched").inc(rows)
            else:
                metrics.counter("db.rows_affected").inc(rows)
            return result

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

    def table_exists(self, name: str) -> bool:
        row = self.fetchone(
            "SELECT 1 FROM sqlite_master WHERE type='table' AND name=? "
            "UNION SELECT 1 FROM sqlite_temp_master "
            "WHERE type='table' AND name=?", (name, name))
        return row is not None

    def table_columns(self, name: str) -> list[str]:
        quote_identifier(name)
        rows = self.fetchall(f"PRAGMA table_info({quote_identifier(name)})")
        if not rows:
            raise DatabaseError(f"no such table {name!r}")
        return [r[1] for r in rows]

    def tables_with_columns(self, names: Sequence[str],
                            columns: Sequence[str]) -> set[str]:
        """Only tables of the main schema count: the data tables this
        checks are never temporary."""
        if not names:
            return set()
        # both lists bind as JSON arrays, so this is one statement with
        # two parameters however many tables are checked; a table
        # qualifies when it matches every distinct requested column.
        # The join reads each table's columns once (a correlated
        # NOT IN re-reads them per requested column, ~6x slower)
        rows = self.fetchall(
            "SELECT m.name FROM sqlite_master m "
            "LEFT JOIN pragma_table_info(m.name, 'main') p "
            "ON p.name IN (SELECT value FROM json_each(?2)) "
            "WHERE m.type = 'table' "
            "AND m.name IN (SELECT value FROM json_each(?1)) "
            "GROUP BY m.name HAVING COUNT(p.name) = "
            "(SELECT COUNT(DISTINCT value) FROM json_each(?2))",
            (json.dumps(list(names)), json.dumps(list(columns))))
        return {r[0] for r in rows}

    def drop_table(self, name: str) -> None:
        self.execute(f"DROP TABLE IF EXISTS {quote_identifier(name)}")

    def list_tables(self) -> list[str]:
        rows = self.fetchall(
            "SELECT name FROM sqlite_master WHERE type='table' "
            "UNION SELECT name FROM sqlite_temp_master WHERE type='table' "
            "ORDER BY name")
        return [r[0] for r in rows]

    def commit(self) -> None:
        # the crash-before-commit injection point: a CrashFault here
        # abandons the open transaction exactly like a killed process
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.check("db.commit", db=self.path)
        with self._lock:
            self._conn.commit()

    def begin(self) -> None:
        """Open an explicit transaction (no-op if one is already open).

        sqlite3's implicit transaction handling only BEGINs before DML,
        so DDL issued early in a batch (per-run table creation) would
        otherwise autocommit and escape a later rollback.
        """
        with self._lock:
            if not self._conn.in_transaction:
                try:
                    self._conn.execute("BEGIN")
                except sqlite3.Error as exc:  # pragma: no cover
                    raise DatabaseError(str(exc)) from exc

    def rollback(self) -> None:
        with self._lock:
            self._conn.rollback()

    @contextlib.contextmanager
    def read_transaction(self) -> Iterator[None]:
        """One deferred transaction around a query.

        sqlite3 would otherwise BEGIN implicitly before the first
        temp-table INSERT and never end that transaction, so the idle
        handle kept its read lock on the database file and every other
        writer's commit waited out the busy timeout.  Deferred, the
        transaction takes no write lock on the experiment tables (temp
        tables live in their own database), and the query's DDL joins
        it instead of committing statement by statement.
        """
        with self._lock:
            began = not self._conn.in_transaction
            if began:
                self._conn.execute("BEGIN")
        try:
            yield
        finally:
            if began and self._conn.in_transaction:
                self.commit()

    def close(self) -> None:
        with self._lock:
            self._conn.close()


class SQLiteServer(DatabaseServer):
    """File-backed server: a directory of ``<experiment>.db`` files."""

    backend_name = "sqlite"
    #: each open_database call opens a fresh sqlite3 connection to the
    #: file, so pooled handles can run transactions concurrently
    independent_connections = True

    def __init__(self, directory: str | pathlib.Path, node: int = 0):
        super().__init__(node)
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, name: str) -> pathlib.Path:
        quote_identifier(name)  # reuse identifier validation for names
        return self.directory / f"{name}.db"

    def create_database(self, name: str) -> SQLiteDatabase:
        path = self._path(name)
        if path.exists():
            raise ExperimentExistsError(
                f"database {name!r} already exists at {path}")
        return SQLiteDatabase(str(path))

    def open_database(self, name: str) -> SQLiteDatabase:
        path = self._path(name)
        if not path.exists():
            raise NoSuchExperimentError(
                f"no database {name!r} at {path}")
        return SQLiteDatabase(str(path))

    def drop_database(self, name: str) -> None:
        path = self._path(name)
        if not path.exists():
            raise NoSuchExperimentError(f"no database {name!r} at {path}")
        path.unlink()

    def list_databases(self) -> list[str]:
        return sorted(p.stem for p in self.directory.glob("*.db"))


#: process-wide counter making shared-cache database names unique
_SHARED_COUNTER = __import__("itertools").count()


class MemoryServer(DatabaseServer):
    """In-memory server; databases live as long as the server object.

    Databases are created in shared-cache mode so query elements on
    other connections (the simulated cluster nodes) can attach and read
    them directly in SQL.
    """

    backend_name = "sqlite"

    def __init__(self, node: int = 0):
        super().__init__(node)
        self._dbs: dict[str, SQLiteDatabase] = {}

    def create_database(self, name: str) -> SQLiteDatabase:
        quote_identifier(name)
        if name in self._dbs:
            raise ExperimentExistsError(
                f"database {name!r} already exists on node {self.node}")
        shared = f"pbmem_{next(_SHARED_COUNTER)}_{name}"
        db = SQLiteDatabase(shared_name=shared)
        self._dbs[name] = db
        return db

    def open_database(self, name: str) -> SQLiteDatabase:
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
