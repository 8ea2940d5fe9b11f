"""Unit tests for DataVector and ColumnInfo."""

import numpy as np
import pytest

from repro.core import DataType, QueryError, Unit
from repro.core.variables import Result
from repro.db import SQLiteDatabase
from repro.query import ColumnInfo, DataVector


def make_vector():
    db = SQLiteDatabase()
    db.create_table("t", [("x", "INTEGER"), ("y", "REAL"),
                          ("label", "TEXT")])
    db.insert_rows("t", ["x", "y", "label"],
                   [(2, 1.5, "b"), (1, 2.5, "a"), (3, None, "c")])
    cols = [
        ColumnInfo("x", DataType.INTEGER, synopsis="the x"),
        ColumnInfo("y", DataType.FLOAT, Unit.parse("MB/s"),
                   "bandwidth", is_result=True),
        ColumnInfo("label", DataType.STRING, is_result=True),
    ]
    return DataVector(db, "t", cols, n_rows=3, producer="test")


class TestDataVector:
    def test_partitions(self):
        v = make_vector()
        assert [c.name for c in v.parameters] == ["x"]
        assert [c.name for c in v.results] == ["y", "label"]

    def test_n_rows(self):
        assert make_vector().n_rows == 3

    def test_rows_ordered(self):
        v = make_vector()
        assert [r[0] for r in v.rows(order_by=["x"])] == [1, 2, 3]

    def test_dicts(self):
        v = make_vector()
        d = v.dicts(order_by=["x"])[0]
        assert d == {"x": 1, "y": 2.5, "label": "a"}

    def test_values(self):
        assert set(make_vector().values("label")) == {"a", "b", "c"}

    def test_array_with_nan(self):
        arr = make_vector().array("y")
        assert np.isnan(arr).sum() == 1

    def test_array_non_numeric_rejected(self):
        with pytest.raises(QueryError, match="not numeric"):
            make_vector().array("label")

    def test_unknown_column_rejected(self):
        with pytest.raises(QueryError, match="no column"):
            make_vector().column("ghost")
        with pytest.raises(QueryError):
            make_vector().values("ghost")

    def test_has_column(self):
        v = make_vector()
        assert v.has_column("x") and not v.has_column("ghost")

    def test_duplicate_columns_rejected(self):
        db = SQLiteDatabase()
        db.create_table("t", [("x", "INTEGER")])
        with pytest.raises(QueryError, match="duplicate"):
            DataVector(db, "t", [ColumnInfo("x"), ColumnInfo("x")],
                       n_rows=0)


class TestColumnInfo:
    def test_from_variable(self):
        col = ColumnInfo.from_variable(Result(
            "bw", datatype="float", unit=Unit.parse("MB/s"),
            synopsis="bandwidth", occurrence="multiple"))
        assert col.is_result
        assert col.axis_label() == "bandwidth [MB/s]"

    def test_renamed_keeps_metadata(self):
        col = ColumnInfo("bw", DataType.FLOAT, Unit.parse("MB/s"),
                         "bandwidth", is_result=True)
        renamed = col.renamed("bw_old")
        assert renamed.name == "bw_old"
        assert renamed.unit == col.unit
        assert renamed.is_result

    def test_axis_label_no_unit(self):
        assert ColumnInfo("x").axis_label() == "x"
