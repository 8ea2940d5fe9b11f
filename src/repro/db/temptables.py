"""Temporary tables used for element-to-element communication in queries.

Section 4.2: "the query elements communicate through temporary tables of
the experiment database. [...] each query element stores its output
vector into its own temporary table.  A reference to this table (its
name) is passed on to the element by which it was invoked."

:class:`TempTableManager` hands out unique table names, creates the
tables and tears everything down when the query finishes.
"""

from __future__ import annotations

from typing import Sequence

from ..core.errors import DatabaseError
from ..obs.metrics import count
from .backend import Database

__all__ = ["TempTableManager"]


class TempTableManager:
    """Creates and tracks per-query-element temporary tables."""

    def __init__(self, db: Database, prefix: str = "pbtmp"):
        self.db = db
        self.prefix = prefix
        self._next = 0
        self._tables: list[str] = []

    def new_table(self, element_name: str,
                  columns: Sequence[tuple[str, str]]) -> str:
        """Create a fresh temp table for ``element_name`` with the given
        ``(column, sqltype)`` pairs; returns the table name (the
        "reference" passed between elements).

        Numbering restarts per manager so a re-executed query emits the
        exact same statement text — both backends then reuse cached
        parses/prepared statements instead of recompiling every run.
        The table is created without a catalogue probe first: only a
        name that is taken (a kept leftover, or another live manager
        with the same prefix) costs a failed ``CREATE`` and moves on to
        the next number.  No permanent table carries a temp-table
        prefix, so a temp table never shadows one on SQLite.
        """
        safe = "".join(c if c.isalnum() else "_" for c in element_name)
        while True:
            name = f"{self.prefix}_{safe}_{self._next}"
            self._next += 1
            try:
                self.db.create_table(name, columns, temporary=True)
                break
            except DatabaseError as exc:
                if "already exists" not in str(exc):
                    raise
        self._tables.append(name)
        return name

    def adopt(self, name: str) -> None:
        """Track an externally created table for cleanup."""
        self._tables.append(name)

    @property
    def tables(self) -> list[str]:
        return list(self._tables)

    def drop_all(self) -> None:
        """Drop every table created by this manager (query teardown).

        Teardown is best-effort: a failing drop must not abandon the
        later tables (that used to leak every table after the first
        failure — and, worse, left ``_tables`` populated so a second
        teardown attempt re-raised on the same table).  Every drop is
        attempted, the list is always cleared, and the first error is
        re-raised afterwards.
        """
        first_error: Exception | None = None
        failed = 0
        for name in self._tables:
            try:
                self.db.drop_table(name)
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
