"""Unit tests for the binary trace format, generator and importer
(Section 6 future work: non-ASCII input files)."""

import pytest

from repro import Experiment, MemoryServer, Parameter, Result
from repro.core import InputError
from repro.faults import FaultPlan, InjectedIOError, use_faults
from repro.obs import MetricsView, Tracer, use_tracer
from repro.parse import MissingPolicy
from repro.testing import DIFF_BACKENDS, make_server
from repro.trace import (Trace, TraceImportDescription, TraceImporter,
                         TraceReader, TraceRecord, TraceWriter)
from repro.workloads.tracegen import MPITraceGenerator, TraceGenConfig


def sample_trace():
    writer = TraceWriter(meta={"app": "demo", "n": "2"})
    writer.add(0.0, "compute", 0, 1.5)
    writer.add(0.1, "send", 0, 0.2)
    writer.add(0.0, "compute", 1, 1.4)
    writer.add(0.3, "compute", 0, 1.6)
    return writer.to_bytes()


class TestFormatRoundTrip:
    def test_meta_and_records(self):
        trace = TraceReader.from_bytes(sample_trace())
        assert trace.meta == {"app": "demo", "n": "2"}
        assert len(trace.records) == 4
        assert trace.records[0] == TraceRecord(0.0, "compute", 0, 1.5)

    def test_event_name_table_shared(self):
        trace = TraceReader.from_bytes(sample_trace())
        assert trace.event_names == ["compute", "send"]

    def test_derived_properties(self):
        trace = TraceReader.from_bytes(sample_trace())
        assert trace.n_processes == 2
        assert trace.duration == pytest.approx(0.3)

    def test_empty_trace(self):
        data = TraceWriter().to_bytes()
        trace = TraceReader.from_bytes(data)
        assert trace.records == [] and trace.meta == {}
        assert trace.duration == 0.0

    def test_extend(self):
        writer = TraceWriter()
        writer.extend(TraceReader.from_bytes(sample_trace()).records)
        again = TraceReader.from_bytes(writer.to_bytes())
        assert len(again.records) == 4

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.pbt"
        writer = TraceWriter(meta={"k": "v"})
        writer.add(1.0, "x", 0, 2.0)
        writer.write_to(str(path))
        trace = TraceReader.from_file(str(path))
        assert trace.meta == {"k": "v"}

    def test_unicode_meta(self):
        writer = TraceWriter(meta={"host": "grisu-ü"})
        trace = TraceReader.from_bytes(writer.to_bytes())
        assert trace.meta["host"] == "grisu-ü"


class TestFormatCorruption:
    def test_bad_magic(self):
        with pytest.raises(InputError, match="magic"):
            TraceReader.from_bytes(b"NOPE" + sample_trace()[4:])

    def test_truncated_records(self):
        data = sample_trace()
        with pytest.raises(InputError, match="truncated"):
            TraceReader.from_bytes(data[:-5])

    def test_truncated_header(self):
        with pytest.raises(InputError):
            TraceReader.from_bytes(b"PBT1\x02")

    def test_empty_bytes(self):
        with pytest.raises(InputError):
            TraceReader.from_bytes(b"")


class TestGenerator:
    def test_deterministic(self):
        a = MPITraceGenerator(TraceGenConfig(seed=2)).generate()
        b = MPITraceGenerator(TraceGenConfig(seed=2)).generate()
        assert a == b

    def test_record_count(self):
        cfg = TraceGenConfig(n_procs=3, n_iterations=10)
        trace = TraceReader.from_bytes(
            MPITraceGenerator(cfg).generate())
        # per iteration per proc: compute + 2 sends + barrier + write
        assert len(trace.records) == 10 * 3 * 5

    def test_listless_io_slower(self):
        def io_mean(technique):
            cfg = TraceGenConfig(technique=technique, seed=5)
            trace = TraceReader.from_bytes(
                MPITraceGenerator(cfg).generate())
            values = [r.value for r in trace.records
                      if r.event == "MPI_File_write"]
            return sum(values) / len(values)
        assert io_mean("listless") > 1.5 * io_mean("listbased")

    def test_meta_carries_parameters(self):
        cfg = TraceGenConfig(n_procs=8, technique="listbased")
        trace = TraceReader.from_bytes(
            MPITraceGenerator(cfg).generate())
        assert trace.meta["n_procs"] == "8"
        assert trace.meta["technique"] == "listbased"

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TraceGenConfig(technique="magic")
        with pytest.raises(ValueError):
            TraceGenConfig(n_procs=0)


def make_trace_experiment(server):
    return Experiment.create(server, "traces", [
        Parameter("technique"),
        Parameter("app"),
        Parameter("event", occurrence="multiple"),
        Parameter("process", datatype="integer",
                  occurrence="multiple"),
        Result("count", datatype="integer", occurrence="multiple"),
        Result("total", datatype="float", occurrence="multiple"),
        Result("mean", datatype="float", occurrence="multiple"),
    ])


@pytest.fixture
def trace_experiment(server):
    return make_trace_experiment(server)


class TestTraceImporter:
    def description(self):
        return TraceImportDescription(
            meta={"technique": "technique", "application": "app"})

    def test_summary_mode(self, trace_experiment):
        gen = MPITraceGenerator(TraceGenConfig(n_procs=2,
                                               n_iterations=5))
        importer = TraceImporter(trace_experiment, self.description())
        report = importer.import_bytes(gen.generate(), gen.filename)
        assert report.n_imported == 1
        run = trace_experiment.load_run(1)
        assert run.once == {"technique": "listless",
                            "app": "stencil2d"}
        # 4 event kinds x 2 processes
        assert len(run.datasets) == 8
        ds = next(d for d in run.datasets
                  if d["event"] == "compute" and d["process"] == 0)
        assert ds["count"] == 5
        assert ds["mean"] == pytest.approx(ds["total"] / 5)

    def test_events_mode(self, server):
        exp = Experiment.create(server, "events", [
            Parameter("technique"),
            Parameter("time", datatype="float",
                      occurrence="multiple"),
            Parameter("event", occurrence="multiple"),
            Parameter("process", datatype="integer",
                      occurrence="multiple"),
            Result("value", datatype="float", occurrence="multiple"),
        ])
        desc = TraceImportDescription(
            meta={"technique": "technique"}, mode="events",
            timestamp="time")
        gen = MPITraceGenerator(TraceGenConfig(n_procs=2,
                                               n_iterations=3))
        TraceImporter(exp, desc).import_bytes(gen.generate(),
                                              gen.filename)
        run = exp.load_run(1)
        assert len(run.datasets) == 2 * 3 * 5

    def test_duplicate_guard(self, trace_experiment):
        gen = MPITraceGenerator(TraceGenConfig())
        importer = TraceImporter(trace_experiment, self.description())
        importer.import_bytes(gen.generate(), "a.pbt")
        report = importer.import_bytes(gen.generate(), "b.pbt")
        assert report.duplicates == ["b.pbt"]
        forced = TraceImporter(trace_experiment, self.description(),
                               force=True)
        assert forced.import_bytes(gen.generate(),
                                   "a.pbt").n_imported == 1

    def test_import_file(self, trace_experiment, tmp_path):
        gen = MPITraceGenerator(TraceGenConfig())
        path = tmp_path / gen.filename
        path.write_bytes(gen.generate())
        importer = TraceImporter(trace_experiment, self.description())
        report = importer.import_file(str(path))
        assert report.n_imported == 1
        record = trace_experiment.run_record(1)
        assert record.source_files == (str(path),)

    def test_bad_mode_rejected(self):
        with pytest.raises(InputError):
            TraceImportDescription(mode="full")

    def test_query_over_imported_trace(self, trace_experiment):
        """End-to-end: the imported trace answers the technique
        question through a normal query."""
        from repro.query import (Operator, Output, ParameterSpec,
                                 Query, Source)
        importer = TraceImporter(trace_experiment, self.description())
        for technique in ("listbased", "listless"):
            for seed in range(3):
                gen = MPITraceGenerator(TraceGenConfig(
                    technique=technique, seed=seed))
                importer.import_bytes(gen.generate(), gen.filename)
        q = Query([
            Source("old", parameters=[
                ParameterSpec("technique", "listbased", show=False),
                ParameterSpec("event", "MPI_File_write", show=False),
                ParameterSpec("process")], results=["mean"]),
            Source("new", parameters=[
                ParameterSpec("technique", "listless", show=False),
                ParameterSpec("event", "MPI_File_write", show=False),
                ParameterSpec("process")], results=["mean"]),
            Operator("avg_old", "avg", ["old"]),
            Operator("avg_new", "avg", ["new"]),
            Operator("ratio", "div", ["avg_new", "avg_old"]),
            Output("o", ["ratio"], format="csv"),
        ])
        result = q.execute(trace_experiment, keep_temp_tables=True)
        ratios = result.vectors["ratio"].values("mean")
        assert all(r > 1.5 for r in ratios)  # listless I/O slower


IMPORT_COUNTERS = ("import.files", "import.duplicates_skipped",
                   "import.runs_stored", "import.datasets_stored",
                   "import.runs_missing_content", "import.runs_discarded")


def import_counts(importer, data, filename):
    """The ``import.*`` counters one trace import moves."""
    view = MetricsView()
    try:
        importer.import_bytes(data, filename)
    finally:
        view.close()
    moved = {name: int(view.counter(name).value)
             for name in IMPORT_COUNTERS}
    return {name: n for name, n in moved.items() if n}


@pytest.mark.parametrize("backend", DIFF_BACKENDS)
class TestTraceImportStore:
    """A trace imports through the ASCII importer's store step: its
    counters, its ``store_run`` span and its ``import.store`` fault
    site."""

    full = TraceImportDescription(
        meta={"technique": "technique", "application": "app"})
    #: fills no ``app``: a missing-content run
    partial = TraceImportDescription(meta={"technique": "technique"})

    def test_counters_move_as_for_an_ascii_import(self, backend):
        exp = make_trace_experiment(make_server(backend))
        data = MPITraceGenerator(TraceGenConfig(n_procs=2)).generate()
        importer = TraceImporter(exp, self.full)
        tracer = Tracer()
        with use_tracer(tracer):
            stored = import_counts(importer, data, "a.pbt")
        assert stored == {"import.files": 1, "import.runs_stored": 1,
                          "import.datasets_stored": 8}
        assert [s.kind for s in tracer.spans
                if s.name == "store_run"] == ["import.run"]
        assert import_counts(importer, data, "b.pbt") == {
            "import.files": 1, "import.duplicates_skipped": 1}

        other = MPITraceGenerator(TraceGenConfig(n_procs=2,
                                                 seed=1)).generate()
        discarding = TraceImporter(exp, self.partial,
                                   missing=MissingPolicy.DISCARD)
        assert import_counts(discarding, other, "c.pbt") == {
            "import.files": 1, "import.runs_discarded": 1}
        defaulting = TraceImporter(exp, self.partial)
        assert import_counts(defaulting, other, "d.pbt") == {
            "import.files": 1, "import.runs_stored": 1,
            "import.datasets_stored": 8, "import.runs_missing_content": 1}
        assert exp.n_runs() == 2

    def test_store_fault_fails_the_import(self, backend):
        exp = make_trace_experiment(make_server(backend))
        data = MPITraceGenerator(TraceGenConfig()).generate()
        plan = FaultPlan.parse("io@import.store")
        with use_faults(plan), pytest.raises(InjectedIOError):
            TraceImporter(exp, self.full).import_bytes(data, "a.pbt")
        assert [r.site for r in plan.log] == ["import.store"]
        assert exp.n_runs() == 0
