"""Parse once on import: parser-built runs are typed for the variable
set they were parsed against, validated exactly once, and never coerced
again — with stored bytes identical to full coercion — plus the discard
policy for unparsable content."""

import datetime
import re

import pytest

import repro.core.experiment as experiment_module
import repro.core.variables as variables_module
from repro import Experiment, MemoryServer
from repro.core import (DataType, DataTypeError, DefinitionError,
                        InputError, Occurrence, Parameter, Result,
                        RunData, VariableSet)
from repro.core.datatypes import compile_parser
from repro.core.variables import Variable
from repro.parse import (DerivedParameter, FixedValue, Importer,
                         InputDescription, MissingPolicy, NamedLocation,
                         TabularColumn, TabularLocation)
from repro.workloads.beffio import generate_campaign
from repro.workloads.beffio_assets import experiment_xml, input_xml
from repro.xmlio import parse_experiment_xml, parse_input_xml

pytestmark = pytest.mark.batch

STAMP = datetime.datetime(2005, 9, 27, 12, 0, 0)


class _FrozenDatetime(datetime.datetime):
    @classmethod
    def now(cls, tz=None):
        return cls(2005, 9, 27, 12, 0, 0)


@pytest.fixture
def frozen_clock(monkeypatch):
    """Experiment set-up stamps its creation time; freeze it so two
    experiments can be compared byte for byte."""
    monkeypatch.setattr(experiment_module, "datetime", _FrozenDatetime)


def beffio_files(tmp_path, n_reps=2, seed=3):
    files = generate_campaign(filesystems=("ufs", "nfs"),
                              proc_counts=(4, 8), repetitions=n_reps,
                              seed=seed)
    paths = []
    for name, text in files:
        path = tmp_path / name
        path.write_text(text)
        paths.append(path)
    return paths


def beffio_experiment():
    definition = parse_experiment_xml(experiment_xml())
    return Experiment.create(MemoryServer(), "b_eff_io",
                             list(definition.variables))


def dump(exp):
    return "\n".join(exp.store.db._conn.iterdump())


_EXTRACT_CHUNK = InputDescription.extract_chunk


def typing_hook(monkeypatch, *, typed):
    """Stamp every extracted run with a fixed creation time; with
    ``typed=False`` also clear the typed marker, which sends the run
    through full per-value coercion."""

    def extract_chunk(self, source, variables):
        run = _EXTRACT_CHUNK(self, source, variables)
        run.created = STAMP
        if not typed:
            run.typed_for = None
        return run

    monkeypatch.setattr(InputDescription, "extract_chunk", extract_chunk)


# -- exact counts ------------------------------------------------------------


class TestValidateOnce:
    def test_one_validate_and_no_coercion_per_stored_run(
            self, monkeypatch, tmp_path):
        paths = beffio_files(tmp_path)
        calls = {"validate": 0, "coerce_in_validate": 0, "parse": 0}
        in_validate = []
        validate, coerce = RunData.validate, Variable.coerce

        def counting_validate(self, *args, **kwargs):
            calls["validate"] += 1
            in_validate.append(True)
            try:
                return validate(self, *args, **kwargs)
            finally:
                in_validate.pop()

        def counting_coerce(self, value):
            if in_validate:
                calls["coerce_in_validate"] += 1
            return coerce(self, value)

        def counting_compile_parser(datatype):
            parse = compile_parser(datatype)

            def counting_parse(text):
                calls["parse"] += 1
                return parse(text)
            return counting_parse

        monkeypatch.setattr(RunData, "validate", counting_validate)
        monkeypatch.setattr(Variable, "coerce", counting_coerce)
        # every variable's compiled parser counts its calls
        monkeypatch.setattr(variables_module, "compile_parser",
                            counting_compile_parser)
        exp = beffio_experiment()
        report = Importer(exp, parse_input_xml(input_xml())
                          ).import_files(paths)
        assert report.n_imported == exp.n_runs() == len(paths) == 16
        assert calls["validate"] == exp.n_runs()
        assert calls["coerce_in_validate"] == 0
        assert calls["parse"] > 100 * exp.n_runs()  # every cell parsed

    def test_api_built_run_still_coerced(self):
        exp = beffio_experiment()
        index = exp.store_run(RunData(
            once={"T": "3", "fs": "zfs", "technique": "listless"},
            datasets=[{"S_chunk": "1024", "access": "read",
                       "B_scatter": "2"}]))
        run = exp.load_run(index)
        assert run.once["T"] == 3
        assert run.once["fs"] == "unknown"  # Fig. 5 whitelist default
        assert run.datasets[0]["S_chunk"] == 1024
        assert run.datasets[0]["B_scatter"] == 2.0

    def test_api_run_invalid_without_default_rejected(self):
        exp = beffio_experiment()
        with pytest.raises(DataTypeError, match="listfree"):
            exp.store_run(RunData(once={"technique": "listfree"}))
        assert exp.n_runs() == 0


# -- differential identity: typed vs full coercion ---------------------------


def rich_variables():
    """Every kind of location and normalisation the import path has:
    whitelist defaults, once and multiple defaults, a timestamp and a
    boolean (the encoded datatypes), a fixed value and a derived
    column."""
    return [
        Parameter("technique", datatype=DataType.STRING),
        Parameter("fs", datatype=DataType.STRING,
                  valid_values=("ufs", "nfs", "unknown"),
                  default="unknown"),
        Parameter("host", datatype=DataType.STRING, default="nowhere"),
        Parameter("when", datatype=DataType.TIMESTAMP),
        Parameter("verified", datatype=DataType.BOOLEAN),
        Parameter("label", datatype=DataType.STRING),
        Parameter("S_chunk", datatype=DataType.INTEGER,
                  occurrence=Occurrence.MULTIPLE),
        Parameter("access", datatype=DataType.STRING,
                  occurrence=Occurrence.MULTIPLE,
                  valid_values=("write", "read")),
        Parameter("tag", datatype=DataType.STRING,
                  occurrence=Occurrence.MULTIPLE, default="plain"),
        Result("bw", datatype=DataType.FLOAT,
               occurrence=Occurrence.MULTIPLE),
        Result("kbytes", datatype=DataType.FLOAT,
               occurrence=Occurrence.MULTIPLE),
    ]


def rich_description():
    return InputDescription([
        NamedLocation("technique", "technique="),
        NamedLocation("fs", "fs="),
        NamedLocation("host", "host="),
        NamedLocation("when", "when:"),
        NamedLocation("verified", "verified:"),
        FixedValue("label", 42),
        TabularLocation([TabularColumn("S_chunk", 1),
                         TabularColumn("access", 2),
                         TabularColumn("bw", 3)], start="DATA",
                        on_mismatch="skip"),
        DerivedParameter("kbytes", "S_chunk / 1024"),
    ])


RICH_TEXTS = [
    # complete, whitelisted file system
    "technique=old\nfs=ufs\nhost=node1\nwhen: 2004-11-23 18:30:30\n"
    "verified: yes\nDATA\n 1024 write 1.5\n 2048 read 3.25\n",
    # invalid file system: the whitelist default substitutes (Fig. 5);
    # no host line: the once default applies under DEFAULT only
    "technique=new\nfs=zfs\nwhen: 2004-11-24 08:00:00\nverified: no\n"
    "DATA\n 4096 write 7\n 8192 read 9.5\n",
    # no file system at all, a non-whitelisted access row is skipped
    "technique=new\nhost=node2\nwhen: 2004-11-25 10:15:00\n"
    "verified: true\nDATA\n 32 write 0.5\n 64 append 1.0\n 128 read 2\n",
]


def rich_import(tmp_path, monkeypatch, *, typed, policy):
    typing_hook(monkeypatch, typed=typed)
    exp = Experiment.create(MemoryServer(), "rich", rich_variables())
    paths = []
    for i, text in enumerate(RICH_TEXTS):
        path = tmp_path / f"rich_{i}.txt"
        path.write_text(text)
        paths.append(path)
    report = Importer(exp, rich_description(),
                      missing=policy).import_files(paths)
    return exp, report


@pytest.mark.usefixtures("frozen_clock")
class TestTypedEqualsFullCoercion:
    @pytest.mark.parametrize("policy", [MissingPolicy.DEFAULT,
                                        MissingPolicy.EMPTY])
    def test_rich_import_dump_identical(self, tmp_path, monkeypatch,
                                        policy):
        typed, typed_report = rich_import(
            tmp_path, monkeypatch, typed=True, policy=policy)
        full, full_report = rich_import(
            tmp_path, monkeypatch, typed=False, policy=policy)
        assert typed_report.n_imported == 3
        assert typed_report.missing == full_report.missing
        assert dump(typed) == dump(full)
        runs = [typed.load_run(i) for i in typed.run_indices()]
        assert [r.once.get("fs") for r in runs] == (
            ["ufs", "unknown", "unknown"] if policy is MissingPolicy.DEFAULT
            else ["ufs", "unknown", None])
        assert runs[0].once["label"] == "42"  # fixed value, coerced
        assert runs[0].once["verified"] is True
        assert runs[0].once["when"] == datetime.datetime(
            2004, 11, 23, 18, 30, 30)
        assert [ds["kbytes"] for ds in runs[0].datasets] == [1.0, 2.0]
        assert [ds["access"] for ds in runs[2].datasets] == [
            "write", "read"]
        tags = {ds.get("tag") for r in runs for ds in r.datasets}
        assert tags == ({"plain"} if policy is MissingPolicy.DEFAULT
                        else {None})

    def test_beffio_campaign_dump_identical(self, tmp_path, monkeypatch):
        paths = beffio_files(tmp_path)
        dumps = []
        for typed in (True, False):
            typing_hook(monkeypatch, typed=typed)
            exp = beffio_experiment()
            Importer(exp, parse_input_xml(input_xml())).import_files(paths)
            dumps.append(dump(exp))
        assert dumps[0] == dumps[1]
        assert "rundata_16" in dumps[0]

    def test_merged_import_dump_identical(self, tmp_path, monkeypatch):
        env = tmp_path / "env.txt"
        env.write_text("technique=old\nfs=zfs\nwhen: 2004-11-23 18:30:30\n"
                       "verified: off\n")
        data = tmp_path / "data.txt"
        data.write_text("DATA\n 1024 write 1.5\n 2048 read 3.25\n")
        env_desc = InputDescription(rich_description().locations[:6])
        data_desc = InputDescription(rich_description().locations[6:])
        dumps = []
        for typed in (True, False):
            typing_hook(monkeypatch, typed=typed)
            exp = Experiment.create(MemoryServer(), "rich",
                                    rich_variables())
            report = Importer(exp).import_merged([(env, env_desc),
                                                  (data, data_desc)])
            assert report.n_imported == 1
            dumps.append(dump(exp))
        assert dumps[0] == dumps[1]
        run = exp.load_run(1)
        assert run.once["fs"] == "unknown"
        assert run.once["verified"] is False
        assert [ds["kbytes"] for ds in run.datasets] == [1.0, 2.0]


class TestTypedMarker:
    def test_extracted_runs_are_typed_for_their_variable_set(self):
        variables = VariableSet(rich_variables())
        (run,) = rich_description().extract(RICH_TEXTS[0], "a.txt",
                                            variables)
        assert run.typed_for is variables
        assert RunData().typed_for is None

    def test_merge_keeps_marker_only_for_same_variable_set(self):
        variables = VariableSet(rich_variables())
        desc = rich_description()
        a, = desc.extract(RICH_TEXTS[0], "a.txt", variables)
        b, = desc.extract(RICH_TEXTS[1], "b.txt", variables)
        b.once.clear()
        a.merge(b)
        assert a.typed_for is variables
        a.merge(RunData(datasets=[{"S_chunk": "16"}]))
        assert a.typed_for is None
        a.validate(variables)
        assert a.datasets[-1]["S_chunk"] == 16

    def test_typed_run_still_checked_for_structure(self):
        variables = VariableSet(rich_variables())
        (run,) = rich_description().extract(RICH_TEXTS[0], "a.txt",
                                            variables)
        run.datasets[0]["fs"] = "ufs"
        with pytest.raises(InputError, match="once-variable 'fs'"):
            run.validate(variables)
        del run.datasets[0]["fs"]
        run.once["nope"] = 1
        with pytest.raises(DefinitionError, match="nope"):
            run.validate(variables)
        del run.once["nope"]
        run.once.pop("technique")
        with pytest.raises(InputError, match="technique"):
            run.validate(variables, require_all=True)

    def test_run_typed_for_another_set_is_fully_coerced(self):
        parsed_as = VariableSet([
            Parameter("size", datatype=DataType.STRING),
            Result("bw", datatype=DataType.STRING,
                   occurrence=Occurrence.MULTIPLE)])
        stored_as = VariableSet([
            Parameter("size", datatype=DataType.INTEGER),
            Result("bw", datatype=DataType.FLOAT,
                   occurrence=Occurrence.MULTIPLE)])
        desc = InputDescription([
            NamedLocation("size", "size="),
            TabularLocation([TabularColumn("bw", 1)], start="DATA")])
        run, = desc.extract("size=64\nDATA\n1.5\n2\n", "x.txt", parsed_as)
        assert run.once["size"] == "64"
        run.validate(stored_as)
        assert run.once["size"] == 64
        assert run.datasets == [{"bw": 1.5}, {"bw": 2.0}]

    def test_modify_variable_forces_full_coercion(self):
        exp = Experiment.create(MemoryServer(), "rich", rich_variables())
        (run,) = rich_description().extract(RICH_TEXTS[0], "a.txt",
                                            exp.variables)
        assert run.once["fs"] == "ufs"
        exp.modify_variable(Parameter(
            "fs", datatype=DataType.STRING,
            valid_values=("nfs", "unknown"), default="unknown"))
        assert run.typed_for is not exp.variables
        index = exp.store_run(run)
        assert exp.load_run(index).once["fs"] == "unknown"


# -- unparsable content under the missing-content policies -------------------


def broken(text):
    """A b_eff_io output whose summary line holds no number."""
    return text.replace("b_eff_io of these measurements =",
                        "b_eff_io of these measurements = N/A\n"
                        "was:", 1)


class TestUnparsableContent:
    def files(self, tmp_path):
        bad, good = beffio_files(tmp_path, n_reps=1)[:2]
        bad.write_text(broken(bad.read_text()))
        return bad, good

    def test_discard_stores_good_file_and_names_bad(self, tmp_path):
        bad, good = self.files(tmp_path)
        exp = beffio_experiment()
        report = Importer(exp, parse_input_xml(input_xml()),
                          missing=MissingPolicy.DISCARD
                          ).import_files([bad, good])
        assert exp.n_runs() == report.n_imported == 1
        assert list(report.failed) == [str(bad)]
        assert str(bad) in report.failed[str(bad)]
        assert "N/A" in report.failed[str(bad)]
        assert exp.load_run(report.run_indices[0]).source_files == [
            str(good)]

    def test_discard_skips_whitelist_failure(self, tmp_path):
        # content outside a whitelist that has no default
        exp = Experiment.create(MemoryServer(), "modes", [
            Parameter("mode", valid_values=("a", "b"))])
        paths = []
        for name, text in (("bad.txt", "mode=c\n"),
                           ("good.txt", "mode=b\n")):
            paths.append(tmp_path / name)
            paths[-1].write_text(text)
        report = Importer(exp, InputDescription([
            NamedLocation("mode", "mode=")]),
            missing=MissingPolicy.DISCARD).import_files(paths)
        assert [exp.load_run(i).once for i in report.run_indices] == [
            {"mode": "b"}]
        assert list(report.failed) == [str(paths[0])]
        assert "'c'" in report.failed[str(paths[0])]

    @pytest.mark.parametrize("policy", [MissingPolicy.REJECT,
                                        MissingPolicy.DEFAULT])
    def test_strict_policies_raise_and_roll_back(self, tmp_path, policy):
        bad, good = self.files(tmp_path)
        exp = beffio_experiment()
        importer = Importer(exp, parse_input_xml(input_xml()),
                            missing=policy)
        with pytest.raises(InputError, match=re.escape(bad.name)):
            importer.import_files([good, bad])
        assert exp.n_runs() == 0  # the good file was rolled back
        assert importer.import_files([good]).n_imported == 1

    def test_merged_import_raises_naming_the_part(self, tmp_path):
        bad, good = self.files(tmp_path)
        desc = parse_input_xml(input_xml())
        exp = beffio_experiment()
        with pytest.raises(InputError, match=re.escape(bad.name)):
            Importer(exp).import_merged([(good, desc), (bad, desc)])
        assert exp.n_runs() == 0
