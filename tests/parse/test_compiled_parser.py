"""Compiled parsers: each variable's parser is built once and returns
exactly what smart parsing (:func:`parse_content` plus the whitelist
check) returns, for every datatype; ``DataTypeError`` is the only
parse failure, so one bad cell never aborts a discard batch; a
``which="first"`` named location stops at its first hit."""

import datetime

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.core.variables as variables_module
from repro import Experiment, MemoryServer
from repro.core import (DataType, DataTypeError, Occurrence, Parameter,
                        RunData, VariableSet)
from repro.core.datatypes import coerce, parse_content
from repro.parse import (Importer, JsonField, JsonLocation, MissingPolicy,
                         NamedLocation, SourceText, TabularColumn,
                         TabularLocation)
from repro.workloads.beffio_assets import input_xml
from repro.xmlio import parse_input_xml
from tests.parse.test_parse_once import (  # noqa: F401 (frozen_clock)
    RICH_TEXTS, beffio_experiment, beffio_files, dump, frozen_clock,
    rich_description, rich_variables, typing_hook)

pytestmark = pytest.mark.parse


# -- DataTypeError is the only parse failure ---------------------------------


class TestOverflowIsDataTypeError:
    @pytest.mark.parametrize("text, datatype", [
        ("1e400", DataType.INTEGER),
        ("9" * 5000, DataType.INTEGER),
        ("1e400", DataType.TIMESTAMP),
        ("inf", DataType.TIMESTAMP),
        ("99999999999999", DataType.TIMESTAMP),
        ("nan", DataType.TIMESTAMP),
    ])
    def test_parse_content(self, text, datatype):
        with pytest.raises(DataTypeError):
            parse_content(text, datatype)

    @pytest.mark.parametrize("value, datatype", [
        (float("inf"), DataType.INTEGER),
        (float("-inf"), DataType.INTEGER),
        (float("nan"), DataType.INTEGER),
        (float("inf"), DataType.TIMESTAMP),
        (float("nan"), DataType.TIMESTAMP),
        (10 ** 20, DataType.TIMESTAMP),
    ])
    def test_coerce(self, value, datatype):
        with pytest.raises(DataTypeError):
            coerce(value, datatype)

    def test_finite_values_still_parse(self):
        assert parse_content("2.000", DataType.INTEGER) == 2
        assert coerce(2.0, DataType.INTEGER) == 2
        assert parse_content("0", DataType.TIMESTAMP) == (
            datetime.datetime(1970, 1, 1))
        assert parse_content("1e400", DataType.FLOAT) == float("inf")

    def test_named_location_discard_batch_keeps_good_files(self, tmp_path):
        paths = beffio_files(tmp_path, n_reps=1)[:3]
        text = paths[1].read_text()
        assert " T=" in text
        paths[1].write_text(text.replace(" T=", " T=1e400 was", 1))
        exp = beffio_experiment()
        report = Importer(exp, parse_input_xml(input_xml()),
                          missing=MissingPolicy.DISCARD
                          ).import_files(paths)
        assert exp.n_runs() == report.n_imported == 2
        assert list(report.failed) == [str(paths[1])]
        assert "1e400" in report.failed[str(paths[1])]

    def test_tabular_row_with_overflow_is_a_mismatch(self):
        variables = VariableSet([
            Parameter("n", datatype=DataType.INTEGER,
                      occurrence=Occurrence.MULTIPLE),
            Parameter("x", datatype=DataType.FLOAT,
                      occurrence=Occurrence.MULTIPLE)])
        loc = TabularLocation([TabularColumn("n", 1), TabularColumn("x", 2)],
                              start="DATA", on_mismatch="skip")
        run = RunData()
        loc.extract(SourceText("DATA\n1 2.5\n1e400 3\n4 5\n"), run,
                    variables)
        assert run.datasets == [{"n": 1, "x": 2.5}, {"n": 4, "x": 5.0}]

    def test_json_record_with_overflow_or_nan_is_skipped(self):
        variables = VariableSet([
            Parameter("n", datatype=DataType.INTEGER,
                      occurrence=Occurrence.MULTIPLE)])
        loc = JsonLocation([JsonField("n", "n")])
        run = RunData()
        loc.extract(SourceText('{"n": 1}\n{"n": 1e400}\n{"n": NaN}\n'
                               '{"n": -Infinity}\n{"n": 7}\n'), run,
                    variables)
        assert run.datasets == [{"n": 1}, {"n": 7}]


# -- the compiled parser equals smart parsing --------------------------------


#: whitelists (first value doubles as the default) per datatype
WHITELISTS = {
    DataType.INTEGER: (1, 256, -3),
    DataType.FLOAT: (1.0, 2.5, 256.0),
    DataType.STRING: ("1", "a", "yes"),
    DataType.TIMESTAMP: (datetime.datetime(1970, 1, 1, 0, 0, 1),),
    DataType.BOOLEAN: (True,),
    DataType.VERSION: ("1.2",),
    DataType.DURATION: (60.0, 1.5),
}

PIECES = st.sampled_from([
    "0", "1", "2", "5", "9", "00", "256", "٣", "１", ",", "_", ".", "e",
    "E", "e-", "E+", "+", "-", " ", "\t", "\n", "=", ":", "/", "T",
    "inf", "INF", "Inf", "nan", "NaN", "NAN", "infinity", "Infinity",
    "INFINITY", "MB", "MBytes", "ms", "s", "min", "h", "x", "yes",
    "off", "true", "1e400", "2004-11-23 18:30:30",
])
TEXTS = st.one_of(st.lists(PIECES, max_size=8).map("".join), st.text())


def outcome(parse, text):
    """What a parser does with ``text``: the value (type and repr, so
    NaN compares equal to itself) or the error class."""
    try:
        value = parse(text)
    except Exception as exc:  # the class is what is compared
        return ("raises", type(exc))
    return ("returns", type(value), repr(value))


@settings(max_examples=3000, derandomize=True, deadline=None)
@given(text=TEXTS, datatype=st.sampled_from(list(DataType)),
       whitelist=st.booleans(), default=st.booleans())
@example(text="", datatype=DataType.INTEGER, whitelist=False,
         default=False)
@example(text=".", datatype=DataType.FLOAT, whitelist=False,
         default=False)
@example(text="1e400", datatype=DataType.INTEGER, whitelist=False,
         default=False)
@example(text="1_000.5_5", datatype=DataType.FLOAT, whitelist=False,
         default=False)
@example(text="1_000.5_5", datatype=DataType.INTEGER, whitelist=False,
         default=False)
@example(text="٣", datatype=DataType.INTEGER, whitelist=False,
         default=False)
@example(text="+256", datatype=DataType.INTEGER, whitelist=True,
         default=True)
@example(text=" 2.5 ", datatype=DataType.FLOAT, whitelist=True,
         default=False)
def test_parser_equals_smart_parsing(text, datatype, whitelist, default):
    values = WHITELISTS[datatype]
    var = Parameter("v", datatype=datatype,
                    valid_values=values if whitelist else (),
                    default=values[0] if default else None)
    expected = outcome(
        lambda t: var.validate(parse_content(t, datatype)), text)
    assert outcome(var.parser, text) == expected
    assert outcome(var.parse, text) == expected
    if expected[0] == "raises":
        assert expected[1] is DataTypeError


def test_parser_is_built_once_and_outside_equality():
    var = Parameter("v", datatype=DataType.INTEGER)
    assert var.parser is var.parser
    assert var == Parameter("v", datatype=DataType.INTEGER)
    assert "parser" not in repr(var)


# -- the generic parser stores the same bytes --------------------------------


def generic_compile_parser(datatype):
    return lambda text: parse_content(text, datatype)


@pytest.mark.usefixtures("frozen_clock")
class TestGenericParserIdentity:
    """Importing with every variable's parser replaced by plain smart
    parsing stores byte-identical databases."""

    def import_dumps(self, monkeypatch, build):
        dumps = []
        for compiled in (True, False):
            if not compiled:
                monkeypatch.setattr(variables_module, "compile_parser",
                                    generic_compile_parser)
            dumps.append(build())
        return dumps

    def test_beffio_campaign(self, tmp_path, monkeypatch):
        paths = beffio_files(tmp_path)
        typing_hook(monkeypatch, typed=True)

        def build():
            exp = beffio_experiment()
            report = Importer(exp, parse_input_xml(input_xml())
                              ).import_files(paths)
            assert report.n_imported == 16
            return dump(exp)

        compiled, generic = self.import_dumps(monkeypatch, build)
        assert compiled == generic
        assert "rundata_16" in compiled

    @pytest.mark.parametrize("policy", [MissingPolicy.DEFAULT,
                                        MissingPolicy.EMPTY])
    def test_rich_description(self, tmp_path, monkeypatch, policy):
        paths = []
        for i, text in enumerate(RICH_TEXTS):
            paths.append(tmp_path / f"rich_{i}.txt")
            paths[-1].write_text(text)
        typing_hook(monkeypatch, typed=True)

        def build():
            exp = Experiment.create(MemoryServer(), "rich",
                                    rich_variables())
            report = Importer(exp, rich_description(),
                              missing=policy).import_files(paths)
            assert report.n_imported == 3
            return dump(exp)

        compiled, generic = self.import_dumps(monkeypatch, build)
        assert compiled == generic


# -- a first-hit named location stops reading --------------------------------


class RecordingLines(list):
    """A line list that records every index read through ``[]``."""

    def __init__(self, lines):
        super().__init__(lines)
        self.read = []

    def __getitem__(self, index):
        self.read.append(index)
        return super().__getitem__(index)


class TestFirstHit:
    TEXT = "head\nsize = 64\nsize = 128\nmiddle\nsize = 256\ntail\n"

    def extract(self, which, regex=False):
        var = Parameter("size", datatype=DataType.INTEGER,
                        occurrence=(Occurrence.MULTIPLE if which == "all"
                                    else Occurrence.ONCE))
        source = SourceText(self.TEXT)
        source.lines = RecordingLines(source.lines)
        run = RunData()
        match = r"size = (\d+)" if regex else "size ="
        NamedLocation("size", match, regex=regex, which=which).extract(
            source, run, VariableSet([var]))
        return run, source.lines.read

    @pytest.mark.parametrize("regex", [False, True])
    def test_first_reads_no_line_after_its_hit(self, regex):
        run, read = self.extract("first", regex)
        assert run.once == {"size": 64}
        assert max(read) == 1

    def test_last_and_all_still_scan_the_whole_file(self):
        run, read = self.extract("last")
        assert run.once == {"size": 256}
        assert max(read) == 5
        run, read = self.extract("all")
        assert run.datasets == [{"size": 64}, {"size": 128},
                                {"size": 256}]
        assert max(read) == 5
