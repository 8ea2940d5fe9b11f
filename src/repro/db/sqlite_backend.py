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

import datetime
import itertools
import json
import pathlib
import sqlite3
from typing import Any, Iterable, Sequence

from .. import faults as _faults
from ..core.errors import (DatabaseError, ExperimentExistsError,
                           NoSuchExperimentError)
from .backend import (Database, DatabaseServer, NamedDatabaseServer,
                      _sql_summary, quote_identifier)
from .retry import DEFAULT_POLICY

__all__ = ["SQLiteDatabase", "SQLiteServer", "MemoryServer",
           "PB_AGGREGATES"]


class _Aggregate:
    """A one-argument user aggregate: SQLite calls ``step`` once per
    row; the columnar engine hands ``steps`` a whole group's values."""

    def steps(self, values):
        for value in values:
            self.step(value)


class _Variance(_Aggregate):
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

    def steps(self, values):
        """:meth:`step` over every value in turn, as one loop: the same
        operations in the same order, so the same bits."""
        n, mean, m2 = self.n, self.mean, self.m2
        for value in values:
            if value is None:
                continue
            x = value if type(value) is float else float(value)
            n += 1
            delta = x - mean
            mean += delta / n
            m2 += delta * (x - mean)
        self.n, self.mean, self.m2 = n, mean, m2

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


class _Median(_Aggregate):
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


class _Product(_Aggregate):
    def __init__(self):
        self.product = 1.0
        self.seen = False

    def step(self, value):
        if value is not None:
            self.seen = True
            self.product *= float(value)

    def finalize(self):
        return self.product if self.seen else None


#: the ``pb_*`` statistical aggregates, one-argument step/finalize
#: classes: registered on every SQLite connection, and stepped by the
#: columnar engine, so both backends compute them alike
PB_AGGREGATES = {"pb_variance": _Variance, "pb_stddev": _Stddev,
                 "pb_median": _Median, "pb_product": _Product}


def _adapt_datetime(value: datetime.datetime) -> str:
    return value.strftime("%Y-%m-%d %H:%M:%S.%f")


sqlite3.register_adapter(datetime.datetime, _adapt_datetime)


def _to_uri(path: str) -> str:
    """URI form of a database path (private memory db stays private)."""
    if path == ":memory:":
        return "file::memory:"
    if path.startswith("file:"):
        return path
    return f"file:{path}"


#: prepared statements each connection keeps (sqlite3's default is
#: 128).  A fused source names every matching run's table, so each
#: import that adds a run retires the old text of its statement, at
#: about 1 KB per run; kept, those stale versions grow a long-lived
#: connection by megabytes.  64 still holds the recurring statements
#: of a query suite (31 distinct) or an import call (36 for 8 files).
#: Since query temp tables stay pooled (no DDL between queries), the
#: fused statements of 100 KB or more stay prepared too; that moved
#: the 800-run campaign's peak RSS by less than 0.3% (medians of 128.4
#: to 128.7 MB over 10 paired runs each, on a 2-core x86-64 host).
STATEMENT_CACHE_SIZE = 64

#: an index's entry in the catalogue memo (see SQLiteDatabase)
_INDEX = "index"


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
        super().__init__()
        if shared_name is not None:
            self.uri = f"file:{shared_name}?mode=memory&cache=shared"
        else:
            self.uri = _to_uri(path)
        self._conn = sqlite3.connect(
            self.uri, uri=True, check_same_thread=False,
            isolation_level=None if autocommit else "",
            cached_statements=STATEMENT_CACHE_SIZE)
        self._conn.execute("PRAGMA journal_mode=MEMORY")
        self._conn.execute("PRAGMA synchronous=OFF")
        # cross-process writers block on the file lock for a bounded
        # time instead of failing instantly with "database is locked";
        # in-process table locks (shared cache) are handled by the
        # retry policy of repro.db.retry instead
        self._conn.execute(
            f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
        self.busy_timeout_ms = int(busy_timeout_ms)
        self.path = path
        self._attached: dict[str, str] = {}
        self._forget_catalogue()
        #: the column sets the catalogue memo shares, each under itself
        self._column_sets: dict[frozenset, frozenset] = {}
        self._temps: set[str] = set()
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
        for name, aggregate in PB_AGGREGATES.items():
            self._conn.create_aggregate(name, 1, aggregate)

    def _run_locked(self, sql: str, params: Any, many: bool,
                    fetch: str | None) -> tuple[Any, int]:
        with self._lock:
            in_transaction = False
            try:  # a closed connection raises on any access
                in_transaction = self._conn.in_transaction
                if _faults.ACTIVE is not None:
                    _faults.ACTIVE.check("db.run", db=self.path,
                                         sql=_sql_summary(sql))
                cur = (self._conn.executemany(sql, params) if many
                       else self._conn.execute(sql, params))
                result = (cur.fetchall() if fetch == "all"
                          else cur.fetchone() if fetch == "one"
                          else None)
                return result, cur.rowcount
            except sqlite3.Error as exc:
                if in_transaction and not self._conn.in_transaction:
                    # the error rolled the open transaction back
                    self._rolled_back()
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

    # -- the catalogue memo ------------------------------------------------
    #
    # ``_catalogue`` is (tag, names): every table and index of the main
    # schema as of the schema cookie ``tag``, a table with its column
    # set (one frozenset per distinct set, shared) or None while no
    # probe has read it, an index with ``_INDEX``.  A tag of None knows
    # nothing.  The memo is exact whenever ``tag`` equals the cookie:
    # the cookie moves by one with every main-schema CREATE, ALTER or
    # DROP, from whichever connection, and this handle's own DDL moves
    # the tag by one with it (``_ddl``).  A tag below the cookie
    # (another connection's DDL, or this handle's DDL through
    # ``execute``) makes the next read refill the memo; a tag is never
    # set above the cookie.  ``_temps`` names the temp tables this
    # handle created, which a statement names before a main table.

    def _forget_catalogue(self) -> None:
        self._catalogue: tuple[int | None, dict] = (None, {})

    def _read_catalogue(self, tag: int | None, probe: Sequence[str],
                        names: Sequence[str]) -> None:
        """Bring the memo to the cookie in one statement: it reads the
        cookie, and the columns of ``probe``'s tables when ``tag`` is
        the cookie; else every main table and index, and the columns
        of ``names``' tables."""
        # the lists bind as JSON arrays, so this is one statement
        # however many tables are read; the inner join drops names
        # that are no table.  SQLite prepares a nested PRAGMA
        # table_info for every probed name, ~18 µs a table: that is
        # what the memo saves.  The first operand returns the cookie
        # even when no table is probed (a CTE reading it, left-joined
        # to the probe, took 1.6x as long for a small probe)
        rows = self.fetchall(
            "SELECT schema_version, CASE WHEN schema_version IS ?1 "
            "THEN NULL ELSE (SELECT json_group_object(name, "
            "type = 'index') FROM sqlite_master "
            "WHERE type IN ('table', 'index')) END "
            "FROM pragma_schema_version "
            "UNION ALL SELECT j.value, json_group_array(p.name) "
            "FROM pragma_schema_version v, json_each(CASE WHEN "
            "v.schema_version IS ?1 THEN ?2 ELSE ?3 END) j "
            "JOIN pragma_table_info(j.value, 'main') p GROUP BY j.key",
            (tag, json.dumps(list(probe)), json.dumps(list(names))))
        cookie, listed = rows[0]
        if listed is None:
            tables = self._catalogue[1]
        else:
            tables = {name: _INDEX if index else None
                      for name, index in json.loads(listed).items()}
        for name, text in itertools.islice(rows, 1, None):
            tables[name] = self._shared(frozenset(json.loads(text)))
        self._catalogue = (cookie, tables)

    def _shared(self, columns: frozenset) -> frozenset:
        return self._column_sets.setdefault(columns, columns)

    def _ddl(self, name: str, run, after, *, create: bool = False) -> None:
        """Run ``run()``, this handle's own CREATE (``create``), ALTER
        or DROP of ``name``, and keep the memo exact: the statement
        changed the main schema when it created a name the memo lacks
        or altered or dropped one it holds, and ``after(columns)`` maps
        the memo's entry before it to the one after it, ``...`` for
        none.  A memo without a tag reads one first, inside the lock,
        so no statement of this handle runs in between; another
        connection's DDL in between leaves the cookie past the tag."""
        with self._lock:
            if not create and name in self._temps:
                run()  # this handle's temp table: the cookie stays
                return
            if self._catalogue[0] is None:
                self._read_catalogue(None, (), ())
            tag, tables = self._catalogue
            run()
            if (name in tables) is create:
                return  # IF [NOT] EXISTS: nothing changed
            columns = after(tables.get(name))
            if columns is ...:
                del tables[name]
            else:
                tables[name] = columns
            self._catalogue = (tag + 1, tables)

    def create_table(self, name: str,
                     columns: Sequence[tuple[str, str]],
                     *, temporary: bool = False,
                     primary_key: str | None = None) -> None:
        """A main-schema table created here joins the catalogue memo
        with its columns, so no probe reads it."""
        create = super().create_table
        if temporary:
            with self._lock:
                create(name, columns, temporary=True,
                       primary_key=primary_key)
                self._temps.add(name)
            return
        new = self._shared(frozenset(col for col, _type in columns))
        self._ddl(name, lambda: create(name, columns,
                                       primary_key=primary_key),
                  lambda _before: new, create=True)

    def create_index(self, name: str, table: str,
                     columns: Sequence[str]) -> None:
        create = super().create_index
        with self._lock:
            if table in self._temps:
                create(name, table, columns)  # a temp index
            else:
                self._ddl(name, lambda: create(name, table, columns),
                          lambda _before: _INDEX, create=True)

    def drop_table(self, name: str) -> None:
        drop = super().drop_table
        with self._lock:
            self._ddl(name, lambda: drop(name), lambda _before: ...)
            self._temps.discard(name)

    def add_column(self, table: str, column: str, sqltype: str) -> None:
        add = super().add_column
        self._ddl(table, lambda: add(table, column, sqltype),
                  lambda before: before and self._shared(before | {column}))

    def drop_column(self, table: str, column: str) -> None:
        drop = super().drop_column
        self._ddl(table, lambda: drop(table, column),
                  lambda before: before and self._shared(before - {column}))

    def tables_with_columns(self, names: Sequence[str],
                            columns: Sequence[str]) -> set[str]:
        """Only tables of the main schema count: the data tables this
        checks are never temporary.

        Answered from the catalogue memo (see ``_forget_catalogue``)
        in one statement that reads the cookie and the columns of the
        requested tables no probe has read yet; when the cookie moved
        past the memo's tag, it reads every main table's name and the
        columns of every requested table instead.  On a handle that
        created its run tables itself, or read them before, that
        statement returns the cookie alone."""
        if not names:
            return set()
        need = frozenset(columns)
        with self._lock:
            tag, tables = self._catalogue
            probe = ([n for n in names if tables.get(n, ...) is None]
                     if need else ())
            self._read_catalogue(tag, probe, names if need else ())
            tables = self._catalogue[1]
            if not need:
                return {n for n in names
                        if n in tables and tables[n] is not _INDEX}
            # one subset test per distinct column set, not per table:
            # every run table has the same set (~35 µs of 95 for 200)
            fits = {have: need <= have for have in self._column_sets}
            return {n for n in names if fits.get(tables.get(n))}

    def list_tables(self) -> list[str]:
        rows = self.fetchall(
            "SELECT name FROM sqlite_master WHERE type='table' "
            "UNION SELECT name FROM sqlite_temp_master WHERE type='table' "
            "ORDER BY name")
        return [r[0] for r in rows]

    @property
    def in_transaction(self) -> bool:
        return self._conn.in_transaction

    def commit(self) -> None:
        # the crash-before-commit injection point: a CrashFault here
        # abandons the open transaction exactly like a killed process
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.check("db.commit", db=self.path)
        with self._lock:
            self._conn.commit()

    def begin(self) -> None:
        """sqlite3's implicit transaction handling only BEGINs before
        DML, so DDL issued early in a batch (per-run table creation)
        would otherwise autocommit and escape a later rollback."""
        with self._lock:
            if not self._conn.in_transaction:
                try:
                    self._conn.execute("BEGIN")
                except sqlite3.Error as exc:  # pragma: no cover
                    raise DatabaseError(str(exc)) from exc

    def _rolled_back(self) -> None:
        # a rolled-back DDL takes the cookie back to a value the memo
        # may have been filled at, and the next DDL moves it on to one;
        # it may also have undone the CREATE or the emptying DELETE of
        # a pooled temp table
        self._forget_catalogue()
        self.temp_pool.forget()

    def rollback(self) -> None:
        with self._lock:
            self._rolled_back()
            self._conn.rollback()

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
_SHARED_COUNTER = itertools.count()


class MemoryServer(NamedDatabaseServer):
    """In-memory server; databases live as long as the server object.

    Databases are created in shared-cache mode so query elements on
    other connections (the simulated cluster nodes) can attach and read
    them directly in SQL.
    """

    backend_name = "sqlite"

    def _new_database(self, name: str) -> SQLiteDatabase:
        return SQLiteDatabase(
            shared_name=f"pbmem_{next(_SHARED_COUNTER)}_{name}")
