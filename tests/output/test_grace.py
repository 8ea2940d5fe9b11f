"""Unit tests for the Grace (.agr) output format."""

import pytest

from repro.core import DataType, QueryError, Unit
from repro.db import SQLiteDatabase
from repro.output import GraceFormat
from repro.query import ColumnInfo, DataVector
from tests.output.test_formats import make_vector


class TestGrace:
    def test_single_artifact(self):
        arts = GraceFormat({"x": "S_chunk"}).render([make_vector()])
        assert len(arts) == 1
        assert arts[0].name.endswith(".agr")

    def test_header_labels_from_metadata(self):
        agr = GraceFormat({"x": "S_chunk"}).render(
            [make_vector()])[0].content
        assert '@    xaxis  label "chunk size [byte]"' in agr
        assert '@    yaxis  label "bandwidth [MB/s]"' in agr
        assert "@version" in agr

    def test_series_become_sets(self):
        agr = GraceFormat({"x": "S_chunk", "series": "access"}).render(
            [make_vector()])[0].content
        assert "@target G0.S0" in agr
        assert "@target G0.S1" in agr
        assert 'legend "access=read"' in agr
        assert 'legend "access=write"' in agr

    def test_xy_data_present(self):
        agr = GraceFormat({"x": "S_chunk"}).render(
            [make_vector()])[0].content
        assert "32.0 1.5" in agr
        assert agr.count("&") >= 1

    def test_categorical_x_tick_labels(self):
        agr = GraceFormat({"x": "access"}).render(
            [make_vector()])[0].content
        assert 'ticklabel 0, "read"' in agr
        assert 'ticklabel 1, "write"' in agr

    def test_no_numeric_result_rejected(self):
        db = SQLiteDatabase()
        db.create_table("t", [("x", "INTEGER"), ("s", "TEXT")])
        v = DataVector(db, "t", [
            ColumnInfo("x", DataType.INTEGER),
            ColumnInfo("s", DataType.STRING, is_result=True)], n_rows=0)
        with pytest.raises(QueryError, match="no numeric"):
            GraceFormat({"x": "x"}).render([v])

    def test_null_rows_skipped(self):
        v = make_vector(rows=[(32, "write", None), (64, "write", 2.0)])
        agr = GraceFormat({"x": "S_chunk"}).render([v])[0].content
        assert "64.0 2.0" in agr
        assert "32.0" not in agr.split("@target")[1]

    def test_usable_from_query_output(self, filled_experiment):
        from repro.query import (Operator, Output, ParameterSpec,
                                 Query, Source)
        q = Query([
            Source("s", parameters=[ParameterSpec("S_chunk"),
                                    ParameterSpec("access")],
                   results=["bw"]),
            Operator("m", "avg", ["s"]),
            Output("plot", ["m"], format="grace",
                   options={"x": "S_chunk", "series": "access",
                            "logx": True}),
        ])
        result = q.execute(filled_experiment)
        assert result.artifacts[0].name == "plot.agr"
