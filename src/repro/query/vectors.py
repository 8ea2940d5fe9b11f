"""Data vectors: what query elements pass between each other.

Section 3.3.1: "The output of a *source* element is a vector of data
tuples [...] Along with the content of a variable in the output vector
comes meta information of the variable."  Section 4.2: "each query
element stores its output vector into its own temporary table.  A
reference to this table (its name) is passed on to the element by which
it was invoked."

A :class:`DataVector` is therefore a *reference*: the name of a temp
table in some database plus Python-side per-column metadata
(:class:`ColumnInfo`).  Row data stays in SQL until an element (or the
final output) needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

from ..core.datatypes import DataType
from ..core.errors import QueryError
from ..core.units import DIMENSIONLESS, Unit
from ..core.variables import Variable
from ..db.backend import Database, quote_identifier

__all__ = ["ColumnInfo", "DataVector"]


@dataclass(frozen=True)
class ColumnInfo:
    """Meta information travelling with one column of a data vector."""

    name: str
    datatype: DataType = DataType.FLOAT
    unit: Unit = DIMENSIONLESS
    synopsis: str = ""
    is_result: bool = False

    @classmethod
    def from_variable(cls, var: Variable) -> "ColumnInfo":
        return cls(name=var.name, datatype=var.datatype, unit=var.unit,
                   synopsis=var.synopsis, is_result=var.is_result)

    def renamed(self, name: str, synopsis: str | None = None
                ) -> "ColumnInfo":
        return replace(self, name=name,
                       synopsis=self.synopsis if synopsis is None
                       else synopsis)

    def axis_label(self) -> str:
        label = self.synopsis or self.name
        if self.unit.symbol:
            label += f" [{self.unit.symbol}]"
        return label


class DataVector:
    """Reference to an element's output: temp table + column metadata.

    ``from_source`` records whether the producing element was a *source*
    — the operator mode selection of Section 3.3.2 depends on it.
    ``n_rows`` is the table's row count, which every producer knows
    from the statements that filled the table, so reading it issues
    no statement.
    """

    def __init__(self, db: Database, table: str,
                 columns: Sequence[ColumnInfo], *,
                 n_rows: int,
                 from_source: bool = False,
                 producer: str = ""):
        self.db = db
        self.table = table
        self.columns = list(columns)
        self.n_rows = n_rows
        self.from_source = from_source
        self.producer = producer
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise QueryError(
                f"duplicate column names in vector of {producer!r}: {names}")

    # -- metadata ------------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def parameters(self) -> list[ColumnInfo]:
        """Input-parameter columns (the tuple's key part)."""
        return [c for c in self.columns if not c.is_result]

    @property
    def results(self) -> list[ColumnInfo]:
        """Result-value columns (the tuple's data part)."""
        return [c for c in self.columns if c.is_result]

    def column(self, name: str) -> ColumnInfo:
        for c in self.columns:
            if c.name == name:
                return c
        raise QueryError(
            f"vector of {self.producer!r} has no column {name!r} "
            f"(has: {self.column_names})")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    # -- data access ----------------------------------------------------------

    def rows(self, order_by: Sequence[str] = ()) -> list[tuple]:
        """All rows in column order (optionally sorted)."""
        cols = ", ".join(quote_identifier(c.name) for c in self.columns)
        sql = f"SELECT {cols} FROM {quote_identifier(self.table)}"
        if order_by:
            sql += " ORDER BY " + ", ".join(
                quote_identifier(c) for c in order_by)
        return self.db.fetchall(sql)

    def dicts(self, order_by: Sequence[str] = ()) -> list[dict[str, Any]]:
        names = self.column_names
        return [dict(zip(names, row)) for row in self.rows(order_by)]

    def values(self, name: str) -> list[Any]:
        """One column as a Python list."""
        self.column(name)
        rows = self.db.fetchall(
            f"SELECT {quote_identifier(name)} "
            f"FROM {quote_identifier(self.table)}")
        return [r[0] for r in rows]

    def array(self, name: str) -> np.ndarray:
        """One numeric column as a numpy array (NULLs become NaN)."""
        info = self.column(name)
        if not info.datatype.is_numeric:
            raise QueryError(
                f"column {name!r} ({info.datatype.value}) is not numeric")
        vals = self.values(name)
        return np.array([np.nan if v is None else float(v) for v in vals])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = "".join("R" if c.is_result else "P" for c in self.columns)
        return (f"DataVector({self.table!r}, cols={self.column_names}, "
                f"kinds={kinds})")
