"""End-to-end sentinel CLI: capture, check, planted slowdown, both
storage backends.

The planted regression uses the fault injector's latency path
(``latency@db.run``): every hooked statement sleeps a few extra
milliseconds, which is exactly the Fig-8 story — the workload still
computes the right answer, it is just slower — and ``perfbase check``
must catch it with exit status 3.
"""

from __future__ import annotations

import json

import pytest

from repro.cli.main import main

pytestmark = pytest.mark.sentinel

BACKENDS = ("sqlite", "memory")

#: small sample counts keep the battery fast; min-samples must match
CAPTURE = ["--samples", "4"]
CHECK = ["--samples", "2", "--min-samples", "4"]


def dbargs(tmp_path, backend):
    return ["--dbdir", str(tmp_path), "--backend", backend]


@pytest.mark.parametrize("backend", BACKENDS)
class TestCheckEndToEnd:
    def test_clean_check_passes(self, tmp_path, backend, capsys):
        db = dbargs(tmp_path, backend)
        assert main(["baseline", "add", "v1"] + CAPTURE + db) == 0
        assert main(["check"] + CHECK + db) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out

    def test_planted_latency_fails_with_exit_3(self, tmp_path, backend,
                                               capsys, monkeypatch):
        db = dbargs(tmp_path, backend)
        assert main(["baseline", "add", "v1"] + CAPTURE + db) == 0
        monkeypatch.setenv("PERFBASE_FAULTS", "latency@db.run:ms=5")
        rc = main(["check", "--against", "v1"] + CHECK + db)
        assert rc == 3
        out = capsys.readouterr().out
        assert "verdict: REGRESSION" in out
        assert "regression:" in out
        assert "threshold +50%" in out
        # clean re-run recovers
        monkeypatch.delenv("PERFBASE_FAULTS")
        assert main(["check", "--against", "v1"] + CHECK + db) == 0

    def test_verdict_json(self, tmp_path, backend, monkeypatch):
        db = dbargs(tmp_path, backend)
        assert main(["baseline", "add", "v1"] + CAPTURE + db) == 0
        out = tmp_path / "verdict.json"
        monkeypatch.setenv("PERFBASE_FAULTS", "latency@db.run:ms=5")
        rc = main(["check", "--json-out", str(out)] + CHECK + db)
        assert rc == 3
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "regression"
        assert payload["exit_code"] == 3
        (check,) = payload["checks"]
        assert check["baseline"] == "v1"
        reasons = [m["reason"] for e in check["elements"]
                   for m in e["metrics"] if m.get("regression")]
        assert reasons and all("baseline" in r and "observed" in r
                               and "threshold" in r for r in reasons)


class TestCheckSelection:
    def test_no_baselines_is_an_error(self, tmp_path, capsys):
        db = dbargs(tmp_path, "sqlite")
        assert main(["check"] + CHECK + db) == 1
        assert "baseline add" in capsys.readouterr().err

    def test_ambiguous_baseline_needs_flag(self, tmp_path, capsys):
        db = dbargs(tmp_path, "sqlite")
        assert main(["baseline", "add", "v1"] + CAPTURE + db) == 0
        assert main(["baseline", "add", "v2"] + CAPTURE + db) == 0
        assert main(["check"] + CHECK + db) == 1
        err = capsys.readouterr().err
        assert "--against" in err and "--all" in err
        assert main(["check", "--all"] + CHECK + db) == 0

    def test_legacy_check_still_requires_experiment(self, tmp_path,
                                                    capsys):
        db = dbargs(tmp_path, "sqlite")
        assert main(["check", "-n", "bw"] + db) == 1
        assert "-e EXPERIMENT" in capsys.readouterr().err


class TestBaselineCommands:
    def test_list_show_rm(self, tmp_path, capsys):
        db = dbargs(tmp_path, "sqlite")
        assert main(["baseline", "list"] + db) == 0
        assert "no baselines" in capsys.readouterr().out
        assert main(["baseline", "add", "v1"] + CAPTURE + db) == 0
        assert main(["baseline", "list"] + db) == 0
        assert "v1" in capsys.readouterr().out
        assert main(["baseline", "show", "v1"] + db) == 0
        out = capsys.readouterr().out
        assert "per-element wall time" in out
        assert "per-element mean time" in out  # declarative query path
        assert main(["baseline", "rm", "v1"] + db) == 0
        assert main(["baseline", "list"] + db) == 0
        assert "no baselines" in capsys.readouterr().out

    def test_add_needs_name(self, tmp_path, capsys):
        db = dbargs(tmp_path, "sqlite")
        assert main(["baseline", "add"] + db) == 1
        assert "NAME" in capsys.readouterr().err

    def test_unknown_workload_fails_before_running(self, tmp_path,
                                                   capsys):
        db = dbargs(tmp_path, "sqlite")
        assert main(["baseline", "add", "v1", "--workload", "nope"]
                    + db) == 1
        assert "unknown sentinel workload" in capsys.readouterr().err

    def test_fsck_round_trip(self, tmp_path, capsys):
        db = dbargs(tmp_path, "sqlite")
        assert main(["baseline", "add", "v1"] + CAPTURE + db) == 0
        assert main(["check"] + CHECK + db) == 0
        assert main(["fsck", "-e", "perfbase_sentinel", "--dry-run"]
                    + db) == 0
        capsys.readouterr()
        assert main(["baseline", "list"] + db) == 0
        assert "v1" in capsys.readouterr().out


class TestMetricsDump:
    def test_dump_from_trace(self, tmp_path, capsys):
        db = dbargs(tmp_path, "sqlite")
        trace = tmp_path / "cap.jsonl"
        assert main(["baseline", "add", "v1", "--trace", str(trace)]
                    + CAPTURE + db) == 0
        capsys.readouterr()
        assert main(["metrics", "dump", "--trace-file", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "sentinel.baselines.captured" in out
        assert "sentinel.samples.recorded" in out

    def test_dump_json(self, tmp_path, capsys):
        db = dbargs(tmp_path, "sqlite")
        trace = tmp_path / "cap.jsonl"
        assert main(["baseline", "add", "v1", "--trace", str(trace)]
                    + CAPTURE + db) == 0
        capsys.readouterr()
        assert main(["metrics", "dump", "--trace-file", str(trace),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        metrics = payload["metrics"]
        assert metrics["sentinel.baselines.captured"]["value"] == 1.0
        assert metrics["sentinel.samples.recorded"]["value"] == 4.0

    def test_dump_needs_trace_file(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "dump"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "--trace-file" in err
