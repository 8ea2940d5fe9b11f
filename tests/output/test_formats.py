"""Unit tests for all output formats (Section 3.3.4)."""

import csv
import io
import xml.etree.ElementTree as ET

import pytest

from repro.core import DataType, QueryError, Unit
from repro.db import SQLiteDatabase
from repro.output import (AsciiBarChartFormat, AsciiTableFormat,
                          Artifact, CsvFormat, GnuplotFormat,
                          LatexTableFormat, XmlTableFormat,
                          available_formats, format_cell, get_format,
                          latex_escape, render_bars)
from repro.query import ColumnInfo, DataVector


def make_vector(rows=None, with_series=False):
    db = SQLiteDatabase()
    cols = [("S_chunk", "INTEGER"), ("access", "TEXT"), ("bw", "REAL")]
    db.create_table("t", cols)
    rows = rows if rows is not None else [
        (32, "write", 1.5), (32, "read", 3.5),
        (1024, "write", 2.0), (1024, "read", 6.0),
    ]
    db.insert_rows("t", ["S_chunk", "access", "bw"], rows)
    infos = [
        ColumnInfo("S_chunk", DataType.INTEGER, Unit.base("byte"),
                   "chunk size"),
        ColumnInfo("access", DataType.STRING, synopsis="access"),
        ColumnInfo("bw", DataType.FLOAT, Unit.parse("MB/s"),
                   "bandwidth", is_result=True),
    ]
    return DataVector(db, "t", infos, n_rows=len(rows), producer="test")


class TestRegistry:
    def test_all_formats_registered(self):
        formats = available_formats()
        for expected in ("ascii", "csv", "gnuplot", "latex", "xml",
                         "barchart"):
            assert expected in formats

    def test_unknown_format_rejected(self):
        with pytest.raises(QueryError, match="unknown output format"):
            get_format("pdf")

    def test_get_format_passes_options(self):
        fmt = get_format("ascii", {"title": "T"})
        assert fmt.option("title") == "T"


class TestAsciiTable:
    def test_headers_use_metadata(self):
        out = AsciiTableFormat().render([make_vector()])[0].content
        assert "chunk size [byte]" in out
        assert "bandwidth [MB/s]" in out

    def test_row_count_line(self):
        out = AsciiTableFormat().render([make_vector()])[0].content
        assert "(4 rows)" in out

    def test_title_option(self):
        fmt = AsciiTableFormat({"title": "My Table"})
        assert fmt.render([make_vector()])[0].content.startswith(
            "My Table")

    def test_precision(self):
        out = AsciiTableFormat({"precision": 1}).render(
            [make_vector()])[0].content
        assert "1.5" in out and "1.50" not in out

    def test_sorted_by_parameters(self):
        out = AsciiTableFormat().render([make_vector()])[0].content
        lines = [l for l in out.splitlines() if l.strip()
                 and l.lstrip()[0].isdigit()]
        chunks = [int(l.split()[0]) for l in lines]
        assert chunks == sorted(chunks)

    def test_multiple_vectors_multiple_artifacts(self):
        arts = AsciiTableFormat().render([make_vector(),
                                          make_vector()])
        assert len(arts) == 2
        assert arts[0].name != arts[1].name


class TestCsv:
    def test_parses_back(self):
        out = CsvFormat().render([make_vector()])[0].content
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["S_chunk", "access", "bw"]
        assert len(rows) == 5

    def test_no_header_option(self):
        out = CsvFormat({"header": False}).render(
            [make_vector()])[0].content
        assert "S_chunk" not in out

    def test_custom_delimiter(self):
        out = CsvFormat({"delimiter": ";"}).render(
            [make_vector()])[0].content
        assert ";" in out.splitlines()[0]


class TestGnuplot:
    def test_two_artifacts(self):
        arts = GnuplotFormat({"x": "S_chunk"}).render([make_vector()])
        names = [a.name for a in arts]
        assert any(n.endswith(".gp") for n in names)
        assert any(n.endswith(".dat") for n in names)

    def test_labels_from_metadata(self):
        # Fig. 8 caption: "All labels and the legend are derived from
        # the experiment definition and the query specification"
        gp = GnuplotFormat({"x": "S_chunk"}).render(
            [make_vector()])[0].content
        assert 'set xlabel "chunk size [byte]"' in gp
        assert 'set ylabel "bandwidth [MB/s]"' in gp

    def test_series_split_into_index_blocks(self):
        arts = GnuplotFormat({"x": "S_chunk",
                              "series": "access"}).render(
            [make_vector()])
        dat = next(a for a in arts if a.name.endswith(".dat")).content
        assert "# series: access=read" in dat
        assert "# series: access=write" in dat
        assert "\n\n\n" in dat  # gnuplot index separator

    def test_bar_style(self):
        gp = GnuplotFormat({"x": "access", "style": "bars"}).render(
            [make_vector()])[0].content
        assert "set style data histograms" in gp
        assert "xtic(1)" in gp

    def test_raw_passthrough(self):
        gp = GnuplotFormat({"x": "S_chunk",
                            "raw": ["set yrange [0:100]"]}).render(
            [make_vector()])[0].content
        assert "set yrange [0:100]" in gp

    def test_log_axes(self):
        gp = GnuplotFormat({"x": "S_chunk", "logx": True,
                            "logy": True}).render(
            [make_vector()])[0].content
        assert "set logscale x" in gp and "set logscale y" in gp

    def test_unknown_style_rejected(self):
        with pytest.raises(QueryError, match="unknown gnuplot style"):
            GnuplotFormat({"style": "pie"}).render([make_vector()])

    def test_errorbars_style(self):
        db = SQLiteDatabase()
        db.create_table("t", [("x", "INTEGER"), ("y", "REAL"),
                              ("err", "REAL")])
        db.insert_rows("t", ["x", "y", "err"],
                       [(1, 10.0, 0.5), (2, 12.0, 0.8)])
        v = DataVector(db, "t", [
            ColumnInfo("x", DataType.INTEGER),
            ColumnInfo("y", DataType.FLOAT, is_result=True,
                       synopsis="mean"),
            ColumnInfo("err", DataType.FLOAT, is_result=True,
                       synopsis="stddev"),
        ], n_rows=2)
        arts = GnuplotFormat({"style": "errorbars",
                              "x": "x"}).render([v])
        gp = arts[0].content
        assert "with yerrorbars" in gp
        assert "using 1:2:3" in gp
        dat = arts[1].content
        assert "1 10.0 0.5" in dat.replace("  ", " ")

    def test_errorbars_needs_two_columns(self):
        with pytest.raises(QueryError, match="two numeric"):
            GnuplotFormat({"style": "errorbars",
                           "x": "S_chunk"}).render([make_vector()])

    def test_null_becomes_nan(self):
        v = make_vector(rows=[(32, "write", None)])
        arts = GnuplotFormat({"x": "S_chunk"}).render([v])
        dat = next(a for a in arts if a.name.endswith(".dat")).content
        assert "NaN" in dat

    def test_no_numeric_result_rejected(self):
        db = SQLiteDatabase()
        db.create_table("t", [("x", "INTEGER"), ("s", "TEXT")])
        v = DataVector(db, "t", [
            ColumnInfo("x", DataType.INTEGER),
            ColumnInfo("s", DataType.STRING, is_result=True)], n_rows=0)
        with pytest.raises(QueryError, match="no numeric"):
            GnuplotFormat({"x": "x"}).render([v])


class TestLatex:
    def test_tabular_structure(self):
        tex = LatexTableFormat().render([make_vector()])[0].content
        assert "\\begin{tabular}{rlr}" in tex
        assert "\\toprule" in tex
        assert tex.count("\\\\") == 5  # header + 4 rows

    def test_caption_and_label_wrap_table(self):
        tex = LatexTableFormat({"caption": "C", "label": "tab:x"}
                               ).render([make_vector()])[0].content
        assert "\\begin{table}" in tex
        assert "\\caption{C}" in tex
        assert "\\label{tab:x}" in tex

    def test_escaping(self):
        assert latex_escape("50%_of #1 & more") == \
            r"50\%\_of \#1 \& more"

    def test_no_booktabs(self):
        tex = LatexTableFormat({"booktabs": False}).render(
            [make_vector()])[0].content
        assert "\\hline" in tex and "\\toprule" not in tex


class TestXmlTable:
    def test_well_formed(self):
        out = XmlTableFormat().render([make_vector()])[0].content
        root = ET.fromstring(out)
        assert root.tag == "table"

    def test_column_metadata(self):
        out = XmlTableFormat().render([make_vector()])[0].content
        root = ET.fromstring(out)
        cols = root.find("columns").findall("column")
        assert [c.get("name") for c in cols] == ["S_chunk", "access",
                                                 "bw"]
        assert cols[2].get("kind") == "result"
        assert cols[2].get("unit") == "MB/s"

    def test_row_count(self):
        out = XmlTableFormat().render([make_vector()])[0].content
        root = ET.fromstring(out)
        assert len(root.find("rows").findall("row")) == 4


class TestBarChart:
    def test_render_bars_negative_and_positive(self):
        chart = render_bars(["a", "b"], [5.0, -3.0], width=20)
        lines = chart.splitlines()
        assert "#" in lines[0] and "#" in lines[1]
        assert "+5.0" in lines[0] and "-3.0" in lines[1]

    def test_render_bars_empty(self):
        assert "(no data)" in render_bars([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(QueryError):
            render_bars(["a"], [1.0, 2.0])

    def test_format_on_vector(self):
        out = AsciiBarChartFormat({"value": "bw"}).render(
            [make_vector()])[0].content
        assert "bandwidth" in out
        assert out.count("#") > 0

    def test_value_defaults_to_first_numeric(self):
        out = AsciiBarChartFormat().render([make_vector()])[0].content
        assert "MB/s" in out


class TestFormatCell:
    FLOAT_COL = ColumnInfo("bw", DataType.FLOAT)

    def test_none_renders_empty(self):
        assert format_cell(None, self.FLOAT_COL) == ""

    def test_conversion_failure_degrades_to_str(self):
        assert format_cell("n/a", self.FLOAT_COL) == "n/a"

    def test_conversion_failure_counts_when_traced(self):
        from repro.obs import InMemorySink, Tracer, use_tracer
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            format_cell("n/a", self.FLOAT_COL)
            format_cell(2.5, self.FLOAT_COL)
        assert tracer.metrics.counter("output.format_errors").value == 1

    def test_unexpected_errors_propagate(self):
        class Exploding:
            def __float__(self):
                raise KeyError("datatype bug")

        with pytest.raises(KeyError):
            format_cell(Exploding(), self.FLOAT_COL)


class TestArtifact:
    def test_write_to(self, tmp_path):
        a = Artifact("sub/file.txt", "hello")
        path = a.write_to(str(tmp_path))
        assert open(path).read() == "hello"
