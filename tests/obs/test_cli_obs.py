"""CLI observability flags: --trace writes a loadable JSON-lines file,
--metrics prints the summary tables; plus the trace-analytics commands
(explain / trace-diff / trace-view)."""

import json
import os

import pytest

from repro.cli import main
from repro.cli.main import build_parser
from repro.obs import QueryProfile, read_trace
from repro.workloads.beffio import generate_campaign
from repro.workloads.beffio_assets import (experiment_xml,
                                           fig8_query_xml, input_xml)

pytestmark = pytest.mark.obs


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "experiment.xml").write_text(experiment_xml())
    (tmp_path / "input.xml").write_text(input_xml())
    (tmp_path / "fig8.xml").write_text(fig8_query_xml())
    results = tmp_path / "results"
    results.mkdir()
    for fname, content in generate_campaign(repetitions=2):
        (results / fname).write_text(content)
    return tmp_path


def run(workspace, *argv):
    return main([*argv, "--dbdir", str(workspace / "db")])


def setup_and_import(workspace, *extra):
    assert run(workspace, "setup", "-d",
               str(workspace / "experiment.xml")) == 0
    files = sorted(str(p) for p in (workspace / "results").iterdir())
    assert run(workspace, "input", "-e", "b_eff_io", "-d",
               str(workspace / "input.xml"), *extra, *files) == 0


class TestTraceFlag:
    def test_query_trace_written_and_loadable(self, workspace,
                                              tmp_path, capsys):
        setup_and_import(workspace)
        trace_path = tmp_path / "query.jsonl"
        assert run(workspace, "query", "-e", "b_eff_io", "-q",
                   str(workspace / "fig8.xml"), "-o",
                   str(workspace / "out"),
                   "--trace", str(trace_path)) == 0
        assert "wrote trace to" in capsys.readouterr().out
        trace = read_trace(str(trace_path))
        assert trace.spans
        kinds = {s.kind for s in trace.spans}
        assert "query" in kinds and "db" in kinds
        elements = trace.element_spans()
        assert {s.kind for s in elements} >= {"source", "output"}
        profile = QueryProfile.from_spans(trace.spans)
        assert 0 < profile.source_fraction() < 1
        assert trace.metrics.get("db.statements").value > 0

    def test_parallel_query_trace(self, workspace, tmp_path, capsys):
        setup_and_import(workspace)
        trace_path = tmp_path / "par.jsonl"
        assert run(workspace, "query", "-e", "b_eff_io", "-q",
                   str(workspace / "fig8.xml"), "-o",
                   str(workspace / "out"), "--parallel", "2",
                   "--trace", str(trace_path)) == 0
        capsys.readouterr()
        trace = read_trace(str(trace_path))
        kinds = trace.by_kind()
        assert "parallel" in kinds and "node" in kinds
        # exactly one parallel run root; the other roots are the DB
        # statements of opening the experiment and tearing down temp
        # tables, which happen outside the run span
        roots = trace.roots()
        assert [r.kind for r in roots if r.kind != "db"] == \
            ["parallel"]
        run_root = next(r for r in roots if r.kind == "parallel")
        assert trace.children_of(run_root)

    def test_input_trace(self, workspace, tmp_path, capsys):
        assert run(workspace, "setup", "-d",
                   str(workspace / "experiment.xml")) == 0
        files = sorted(str(p) for p in
                       (workspace / "results").iterdir())
        trace_path = tmp_path / "import.jsonl"
        assert run(workspace, "input", "-e", "b_eff_io", "-d",
                   str(workspace / "input.xml"),
                   "--trace", str(trace_path), *files) == 0
        capsys.readouterr()
        trace = read_trace(str(trace_path))
        files_seen = {s.name for s in trace.spans
                      if s.kind == "import.file"}
        assert files_seen == set(files)  # span name = imported path
        assert trace.metrics.get("import.runs_stored").value == \
            len(files)


class TestMetricsFlag:
    def test_metrics_tables_printed(self, workspace, capsys):
        setup_and_import(workspace)
        capsys.readouterr()
        assert run(workspace, "query", "-e", "b_eff_io", "-q",
                   str(workspace / "fig8.xml"), "-o",
                   str(workspace / "out"), "--metrics") == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "db.statements" in out

    def test_no_flags_no_observability_output(self, workspace,
                                              capsys):
        setup_and_import(workspace)
        capsys.readouterr()
        assert run(workspace, "query", "-e", "b_eff_io", "-q",
                   str(workspace / "fig8.xml"), "-o",
                   str(workspace / "out")) == 0
        out = capsys.readouterr().out
        assert "trace summary" not in out
        assert "wrote trace" not in out


#: the data-path subcommands (everything that reads or writes
#: experiment data; ls/info/access and the pure trace-file analytics
#: commands are metadata-only)
DATA_PATH_COMMANDS = ("setup", "input", "query", "simulate", "report",
                      "runs", "show", "values", "update", "delete",
                      "check", "sweep", "dump", "restore", "export",
                      "trace")

#: argv builders for the traced-execution test (commands whose session
#: does real DB work against the populated b_eff_io experiment)
TRACED_ARGV = {
    "report": lambda ws: ["report", "-e", "b_eff_io"],
    "runs": lambda ws: ["runs", "-e", "b_eff_io"],
    "show": lambda ws: ["show", "-e", "b_eff_io", "-r", "1"],
    "values": lambda ws: ["values", "-e", "b_eff_io",
                          "-n", "technique", "--distinct"],
    "update": lambda ws: ["update", "-e", "b_eff_io",
                          "--remove", "pos"],
    "delete": lambda ws: ["delete", "-e", "b_eff_io", "-r", "1"],
    "check": lambda ws: ["check", "-e", "b_eff_io", "-n", "B_scatter",
                         "--group", "S_chunk"],
    "sweep": lambda ws: ["sweep", "-e", "b_eff_io",
                         "technique=listbased,listless"],
    "dump": lambda ws: ["dump", "-e", "b_eff_io",
                        "-o", str(ws / "dump.json")],
    "export": lambda ws: ["export", "-e", "b_eff_io",
                          "-o", str(ws / "definition.xml")],
    "simulate": lambda ws: ["simulate", "-e", "b_eff_io",
                            "-q", str(ws / "fig8.xml"),
                            "--nodes", "1 2"],
}


class TestObsFlagCoverage:
    @pytest.mark.parametrize("command", DATA_PATH_COMMANDS)
    def test_parser_accepts_obs_flags(self, command):
        """Every data-path subcommand takes --trace and --metrics."""
        parser = build_parser()
        sub = parser._subparsers._group_actions[0]
        options = {opt for action in sub.choices[command]._actions
                   for opt in action.option_strings}
        assert "--trace" in options, command
        assert "--metrics" in options, command

    @pytest.mark.parametrize("command", sorted(TRACED_ARGV))
    def test_trace_written_and_loadable(self, command, workspace,
                                        tmp_path, capsys):
        setup_and_import(workspace)
        capsys.readouterr()
        trace_path = tmp_path / f"{command}.jsonl"
        argv = TRACED_ARGV[command](workspace)
        assert run(workspace, *argv, "--trace", str(trace_path)) == 0
        assert "wrote trace to" in capsys.readouterr().out
        trace = read_trace(trace_path)
        assert trace.spans, f"{command} produced an empty trace"
        assert trace.metrics.get("db.statements").value > 0

    def test_setup_trace(self, workspace, tmp_path, capsys):
        trace_path = tmp_path / "setup.jsonl"
        assert run(workspace, "setup", "-d",
                   str(workspace / "experiment.xml"),
                   "--trace", str(trace_path)) == 0
        capsys.readouterr()
        assert read_trace(trace_path).spans

    def test_restore_trace(self, workspace, tmp_path, capsys):
        setup_and_import(workspace)
        assert run(workspace, "dump", "-e", "b_eff_io",
                   "-o", str(tmp_path / "dump.json")) == 0
        trace_path = tmp_path / "restore.jsonl"
        assert run(workspace, "restore",
                   "-i", str(tmp_path / "dump.json"),
                   "-e", "b_eff_io_copy",
                   "--trace", str(trace_path)) == 0
        capsys.readouterr()
        assert read_trace(trace_path).spans


# -- trace analytics commands ------------------------------------------------


GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "explain_fig8.golden")


def make_fig8_trace(workspace, tmp_path, name="fig8.jsonl", *extra):
    trace_path = tmp_path / name
    assert run(workspace, "query", "-e", "b_eff_io", "-q",
               str(workspace / "fig8.xml"), "-o",
               str(workspace / "out"), *extra,
               "--trace", str(trace_path)) == 0
    return trace_path


PUSHDOWN_GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                               "explain_fig8_pushdown.golden")


@pytest.mark.obs_analytics
class TestExplainCommand:
    def test_plain_output_matches_golden(self, workspace, capsys):
        assert run(workspace, "explain", "-q",
                   str(workspace / "fig8.xml"), "--no-pushdown") == 0
        with open(GOLDEN, encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()

    @pytest.mark.pushdown
    def test_default_output_annotates_fused_chains(self, workspace,
                                                   capsys):
        assert run(workspace, "explain", "-q",
                   str(workspace / "fig8.xml"), "--no-cache") == 0
        with open(PUSHDOWN_GOLDEN, encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()

    @pytest.mark.pushdown
    def test_default_output_plans_like_a_cached_query(self, workspace,
                                                      capsys):
        # `perfbase query` caches by default, and under a cache no
        # chain fuses: the default plan must not promise fused chains
        assert run(workspace, "explain", "-q",
                   str(workspace / "fig8.xml")) == 0
        out = capsys.readouterr().out
        assert "FUSED[" not in out and "fused into" not in out
        assert "no chain fuses under the query cache" in out
        assert "--no-cache" in out

    @pytest.mark.pushdown
    def test_simulate_reports_fusion_only_without_a_cache(self, workspace,
                                                          capsys):
        setup_and_import(workspace)
        capsys.readouterr()
        argv = ["simulate", "-e", "b_eff_io", "-q",
                str(workspace / "fig8.xml"), "--nodes", "1"]
        assert run(workspace, *argv) == 0
        assert "fused chain" not in capsys.readouterr().out
        assert run(workspace, *argv, "--no-cache") == 0
        assert "pushdown: 1 fused chain(s)" in capsys.readouterr().out

    def test_annotated_with_trace(self, workspace, tmp_path, capsys):
        setup_and_import(workspace)
        trace_path = make_fig8_trace(workspace, tmp_path)
        capsys.readouterr()
        assert run(workspace, "explain", "-q",
                   str(workspace / "fig8.xml"),
                   "--trace", str(trace_path)) == 0
        out = capsys.readouterr().out
        assert "source fraction" in out
        assert "wall=" in out and "calls=1" in out

    def test_lax_skips_malformed_lines(self, workspace, tmp_path,
                                       capsys):
        setup_and_import(workspace)
        trace_path = make_fig8_trace(workspace, tmp_path)
        with open(trace_path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "span", "trunc\n')
        capsys.readouterr()
        assert run(workspace, "explain", "-q",
                   str(workspace / "fig8.xml"),
                   "--trace", str(trace_path)) == 1  # strict default
        assert run(workspace, "explain", "-q",
                   str(workspace / "fig8.xml"),
                   "--trace", str(trace_path), "--lax") == 0
        assert "warning: skipped" in capsys.readouterr().out


@pytest.mark.obs_analytics
class TestTraceDiffCommand:
    def _write_trace(self, path, seconds_by_name):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, seconds) in enumerate(
                    seconds_by_name.items(), start=1):
                fh.write(json.dumps({
                    "type": "span", "span_id": i, "parent_id": None,
                    "name": name, "kind": "source", "start": 0.0,
                    "end": seconds}) + "\n")

    def test_flags_injected_slowdown(self, tmp_path, capsys):
        base = tmp_path / "base.jsonl"
        new = tmp_path / "new.jsonl"
        self._write_trace(base, {"src": 0.1, "other": 0.2})
        self._write_trace(new, {"src": 0.3, "other": 0.2})
        assert main(["trace-diff", str(base), str(new)]) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "1 regression(s)" in out

    def test_fail_on_regression_exit_code(self, tmp_path, capsys):
        base = tmp_path / "base.jsonl"
        new = tmp_path / "new.jsonl"
        self._write_trace(base, {"src": 0.1})
        self._write_trace(new, {"src": 0.3})
        assert main(["trace-diff", str(base), str(new),
                     "--fail-on-regression"]) == 3
        capsys.readouterr()
        # same traces: no regression, exit 0
        assert main(["trace-diff", str(base), str(base),
                     "--fail-on-regression"]) == 0
        # a generous threshold mutes the 3x slowdown
        assert main(["trace-diff", str(base), str(new),
                     "--threshold", "5.0",
                     "--fail-on-regression"]) == 0
        # the noise floor mutes a 200ms delta
        assert main(["trace-diff", str(base), str(new),
                     "--min-ms", "500",
                     "--fail-on-regression"]) == 0
        capsys.readouterr()

    def test_real_serial_vs_parallel(self, workspace, tmp_path,
                                     capsys):
        setup_and_import(workspace)
        serial = make_fig8_trace(workspace, tmp_path, "serial.jsonl")
        parallel = make_fig8_trace(workspace, tmp_path,
                                   "parallel.jsonl", "--parallel", "2")
        capsys.readouterr()
        code = main(["trace-diff", str(serial), str(parallel)])
        assert code == 0
        out = capsys.readouterr().out
        assert "span set(s)" in out
        for element in ("src_new", "src_old", "reldiff"):
            assert element in out


@pytest.mark.obs_analytics
class TestTraceViewCommand:
    def test_timeline_rendered(self, workspace, tmp_path, capsys):
        setup_and_import(workspace)
        trace_path = make_fig8_trace(workspace, tmp_path)
        capsys.readouterr()
        assert main(["trace-view", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "trace timeline" in out and "ms window" in out
        assert "src_new" in out and "#" in out
        assert "db" not in out.replace("dbdir", "")

    def test_all_kinds_shows_db_spans(self, workspace, tmp_path,
                                      capsys):
        setup_and_import(workspace)
        trace_path = make_fig8_trace(workspace, tmp_path)
        capsys.readouterr()
        assert main(["trace-view", str(trace_path),
                     "--all-kinds", "--max-rows", "10"]) == 0
        out = capsys.readouterr().out
        assert "db" in out
        assert "more span(s) elided" in out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace-view",
                     str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err
