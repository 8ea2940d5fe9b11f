"""Temporary tables used for element-to-element communication in queries.

Section 4.2: "the query elements communicate through temporary tables of
the experiment database. [...] each query element stores its output
vector into its own temporary table.  A reference to this table (its
name) is passed on to the element by which it was invoked."

:class:`TempTableManager` hands out unique table names for one query
and tears everything down when the query finishes.  The tables
themselves outlive the query: every database handle keeps a
:class:`TempTablePool` of emptied tables, and a query that needs a
table of the same name and layout again leases it without a
statement.  On SQLite every ``CREATE`` or ``DROP`` moves the schema
cookie and so expires every prepared statement of the connection; a
warm query issues no DDL, and its statements stay prepared.

Known limit: a query's first run on a handle still creates its temp
tables, and on SQLite DDL in the temp schema expires every prepared
statement on the connection (DDL in an attached database only those
that read it).  On the 800-run campaign a warm fused fig8 statement
took 2.5 ms, and 10.1 ms right after stddev's first temp ``CREATE``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence

from ..core.errors import DatabaseError
from ..obs.metrics import REGISTRY, count
from .backend import Database, quote_identifier

__all__ = ["TempTableManager", "TempTablePool", "IDLE_BOUND"]

#: idle tables one handle keeps; beyond it the least recently released
#: is dropped.  Idle tables hold no rows, so this bounds catalogue
#: entries: two fig8 and two stddev_check queries, each run fused and
#: unfused, lease 12 distinct tables
IDLE_BOUND = 64

_CREATED = REGISTRY.counter("temptables.created")
_REUSED = REGISTRY.counter("temptables.reused")

Layout = tuple[tuple[str, str], ...]


class TempTablePool:
    """The temp tables one database handle keeps between queries.

    Each table is *leased* by one live :class:`TempTableManager` or
    *idle*: empty, with a known layout, ready for the next lease.  A
    rollback may undo the ``CREATE`` or the emptying ``DELETE`` of an
    idle table, so :meth:`forget` turns every idle table into one of
    unknown state, which its next lease drops and creates afresh.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: OrderedDict[str, Layout] = OrderedDict()
        self._leased: dict[str, Layout] = {}
        self._unknown: set[str] = set()

    def lease(self, name: str, layout: Layout) -> str | None:
        """Reserve ``name`` for one manager: ``None`` when another
        holds it, ``"idle"`` when an empty table of this layout is
        ready, ``"replace"`` when a table of another layout or of
        unknown state may hold the name, ``"create"`` otherwise."""
        with self._lock:
            if name in self._leased:
                return None
            self._leased[name] = layout
            if self._idle.get(name) == layout:
                del self._idle[name]
                return "idle"
            if self._idle.pop(name, None) is not None \
                    or name in self._unknown:
                self._unknown.discard(name)
                return "replace"
            return "create"

    def release(self, name: str) -> list[str]:
        """Mark a leased table emptied and idle; returns the idle
        tables beyond :data:`IDLE_BOUND`, which the caller drops."""
        with self._lock:
            layout = self._leased.pop(name, None)
            if layout is None:
                return []
            self._idle[name] = layout
            overflow = []
            while len(self._idle) > IDLE_BOUND:
                overflow.append(self._idle.popitem(last=False)[0])
            return overflow

    def evict(self, name: str) -> None:
        """Forget ``name``: it was dropped, or never created."""
        with self._lock:
            self._leased.pop(name, None)
            self._idle.pop(name, None)
            self._unknown.discard(name)

    def forget(self) -> None:
        """The handle's transaction was rolled back."""
        with self._lock:
            self._unknown.update(self._idle)
            self._idle.clear()

    def is_idle(self, name: str) -> bool:
        with self._lock:
            return name in self._idle


class TempTableManager:
    """Leases the temporary tables of one query's elements."""

    def __init__(self, db: Database, prefix: str = "pbtmp"):
        self.db = db
        self.prefix = prefix
        self._next = 0
        #: (name, pooled?) in lease order; adopted tables are not pooled
        self._tables: list[tuple[str, bool]] = []

    def new_table(self, element_name: str,
                  columns: Sequence[tuple[str, str]]) -> str:
        """Lease an empty temp table for ``element_name`` with the
        given ``(column, sqltype)`` pairs; returns the table name (the
        "reference" passed between elements).

        Numbering restarts per manager, so a re-run query leases the
        tables of its previous run: an idle pooled table of the same
        name and layout costs no statement, and the query's statement
        texts repeat.  The columnar engine then reuses its compiled
        plans, and SQLite its prepared statements, which no DDL has
        expired.  A name leased by another live manager on this handle
        (a kept result, or a concurrent query with the same prefix), or
        a table the pool does not know, moves on to the next number.
        No permanent table carries a temp-table prefix, so a temp table
        never shadows one on SQLite.
        """
        safe = "".join(c if c.isalnum() else "_" for c in element_name)
        layout = tuple(map(tuple, columns))
        pool = self.db.temp_pool
        while True:
            name = f"{self.prefix}_{safe}_{self._next}"
            self._next += 1
            state = pool.lease(name, layout)
            if state is None:
                continue
            if state == "idle":
                _REUSED.inc()
                break
            try:
                if state == "replace":
                    self.db.execute(
                        f"DROP TABLE IF EXISTS {quote_identifier(name)}")
                self.db.create_table(name, columns, temporary=True)
            except Exception as exc:
                pool.evict(name)
                if isinstance(exc, DatabaseError) \
                        and "already exists" in str(exc):
                    continue
                raise
            _CREATED.inc()
            break
        self._tables.append((name, True))
        return name

    def adopt(self, name: str) -> None:
        """Track an externally created table; teardown drops it."""
        self._tables.append((name, False))

    @property
    def tables(self) -> list[str]:
        return [name for name, _pooled in self._tables]

    def drop_all(self) -> None:
        """Release every table of this manager (query teardown).

        A leased table is emptied by one ``DELETE`` and returns to the
        pool idle; one whose ``DELETE`` fails (a rollback undid its
        ``CREATE``, say) is dropped instead, as is an adopted table and
        an idle table the pool's bound pushes out.  Teardown is
        best-effort: every table is attempted, the list is always
        cleared, and the first table that could not be torn down
        re-raises its error afterwards.
        """
        first_error: Exception | None = None
        failed = 0
        for name, pooled in self._tables:
            try:
                if not pooled:
                    self.db.drop_table(name)
                    continue
                try:
                    self.db.execute(
                        f"DELETE FROM {quote_identifier(name)}")
                except Exception:
                    self.db.drop_table(name)
                    continue
                for evicted in self.db.temp_pool.release(name):
                    self.db.drop_table(evicted)
            except Exception as exc:
                failed += 1
                if first_error is None:
                    first_error = exc
        self._tables.clear()
        if first_error is not None:
            count("temptables.drop_errors", failed)
            raise first_error

    def row_count(self, name: str) -> int:
        return self.db.count_rows(name)

    def __enter__(self) -> "TempTableManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.drop_all()
        except Exception:
            if exc_type is None:
                raise
            # a failing drop during exception unwind must not mask
            # the original error (every drop was still attempted)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TempTableManager({len(self._tables)} tables)"

