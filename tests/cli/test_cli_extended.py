"""Tests of the extended CLI commands: restore, export, trace."""

import json

import pytest

from repro import Experiment
from repro.cli import main
from repro.db import SQLiteServer
from repro.workloads.tracegen import MPITraceGenerator, TraceGenConfig
from tests.cli.test_cli import setup_and_import, workspace  # noqa: F401


def run(workspace, *argv):
    return main([*argv, "--dbdir", str(workspace / "db")])


class TestDumpRestoreRoundTrip:
    def test_roundtrip(self, workspace, capsys, tmp_path):
        setup_and_import(workspace)
        dump_file = tmp_path / "dump.json"
        assert run(workspace, "dump", "-e", "b_eff_io", "-o",
                   str(dump_file)) == 0
        assert run(workspace, "restore", "-i", str(dump_file),
                   "-e", "b_eff_io_copy") == 0
        capsys.readouterr()
        run(workspace, "ls")
        out = capsys.readouterr().out
        assert "b_eff_io_copy" in out
        # both have the same run count
        counts = [line.split()[1] for line in out.splitlines()
                  if line.startswith("b_eff_io")]
        assert counts[0] == counts[1]

    def test_restored_data_queryable(self, workspace, capsys,
                                     tmp_path):
        setup_and_import(workspace)
        dump_file = tmp_path / "dump.json"
        run(workspace, "dump", "-e", "b_eff_io", "-o", str(dump_file))
        run(workspace, "restore", "-i", str(dump_file), "-e", "copy")
        capsys.readouterr()
        run(workspace, "values", "-e", "copy", "-n", "technique",
            "--distinct")
        out = capsys.readouterr().out.split()
        assert sorted(out) == ["listbased", "listless"]


class TestExport:
    def test_export_parses_back(self, workspace, capsys, tmp_path):
        setup_and_import(workspace)
        out_file = tmp_path / "definition.xml"
        assert run(workspace, "export", "-e", "b_eff_io", "-o",
                   str(out_file)) == 0
        from repro.xmlio import parse_experiment_xml
        definition = parse_experiment_xml(str(out_file))
        assert definition.name == "b_eff_io"
        assert "B_scatter" in definition.variables


class TestTraceCommand:
    def make_trace_experiment(self, workspace):
        definition = """
        <experiment>
          <name>traces</name>
          <parameter occurrence="once">
            <name>technique</name><datatype>string</datatype>
          </parameter>
          <parameter>
            <name>event</name><datatype>string</datatype>
          </parameter>
          <parameter>
            <name>process</name><datatype>integer</datatype>
          </parameter>
          <result>
            <name>mean</name><datatype>float</datatype>
          </result>
          <result>
            <name>count</name><datatype>integer</datatype>
          </result>
          <result>
            <name>total</name><datatype>float</datatype>
          </result>
        </experiment>"""
        (workspace / "trace_exp.xml").write_text(definition)
        assert run(workspace, "setup", "-d",
                   str(workspace / "trace_exp.xml")) == 0

    def test_import_traces(self, workspace, capsys, tmp_path):
        self.make_trace_experiment(workspace)
        paths = []
        for technique in ("listbased", "listless"):
            gen = MPITraceGenerator(TraceGenConfig(
                technique=technique, n_iterations=5))
            path = tmp_path / gen.filename
            path.write_bytes(gen.generate())
            paths.append(str(path))
        capsys.readouterr()
        assert run(workspace, "trace", "-e", "traces",
                   "--meta", "technique=technique", *paths) == 0
        assert "imported 2 trace run(s)" in capsys.readouterr().out
        run(workspace, "values", "-e", "traces", "-n", "event",
            "--distinct")
        events = capsys.readouterr().out.split()
        assert "MPI_File_write" in events

    def test_duplicates_skipped(self, workspace, capsys, tmp_path):
        self.make_trace_experiment(workspace)
        gen = MPITraceGenerator(TraceGenConfig(n_iterations=5))
        a = tmp_path / "a.pbt"
        a.write_bytes(gen.generate())
        b = tmp_path / "b.pbt"
        b.write_bytes(gen.generate())
        capsys.readouterr()
        run(workspace, "trace", "-e", "traces",
            "--meta", "technique=technique", str(a), str(b))
        out = capsys.readouterr().out
        assert "imported 1 trace run(s)" in out
        assert "skipped 1 duplicate" in out

    @pytest.mark.parametrize("missing", ["discard", "default"])
    def test_malformed_trace_fails_like_a_malformed_input(
            self, workspace, capsys, tmp_path, missing):
        """One good and one bad file: under the discard policy the good
        one is stored and the bad one reported, under any other the
        batch stores nothing.  ``perfbase trace`` exits as ``perfbase
        input`` does on a good input file and an unreadable one."""
        self.make_trace_experiment(workspace)
        good = tmp_path / "good.pbt"
        good.write_bytes(MPITraceGenerator(
            TraceGenConfig(n_iterations=5)).generate())
        bad = tmp_path / "bad.pbt"
        bad.write_bytes(b"PBT1 but not a trace")
        capsys.readouterr()
        traced = run(workspace, "trace", "-e", "traces", "--missing",
                     missing, "--meta", "technique=technique",
                     str(good), str(bad))
        out = capsys.readouterr().out
        assert run(workspace, "setup", "-d",
                   str(workspace / "experiment.xml")) == 0
        sums = sorted((workspace / "results").iterdir())[:1]
        inputs = run(workspace, "input", "-e", "b_eff_io", "-d",
                     str(workspace / "input.xml"), "--missing", missing,
                     str(sums[0]), str(tmp_path / "absent.sum"))
        assert traced == inputs == (0 if missing == "discard" else 1)
        exp = Experiment.open(SQLiteServer(workspace / "db"), "traces")
        stored = [record.source_files for record in exp.run_records()]
        exp.close()
        if missing == "discard":
            assert "imported 1 trace run(s) from 2 file(s)" in out
            assert f"discarded file {bad}: " in out
            assert stored == [(str(good),)]
        else:
            assert stored == []

    def test_bad_meta_syntax(self, workspace, tmp_path, capsys):
        self.make_trace_experiment(workspace)
        assert run(workspace, "trace", "-e", "traces",
                   "--meta", "nonsense", str(tmp_path / "x.pbt")) == 1


class TestSimulateCommand:
    def test_speedup_table(self, workspace, capsys):
        setup_and_import(workspace)
        capsys.readouterr()
        assert run(workspace, "simulate", "-e", "b_eff_io", "-q",
                   str(workspace / "fig8.xml"), "--nodes", "1 2 4") == 0
        out = capsys.readouterr().out
        assert "DAG width" in out
        assert "speedup" in out
        # one line per node count
        assert len([l for l in out.splitlines()
                    if l.strip().startswith(("1 ", "2 ", "4 "))]) == 3
