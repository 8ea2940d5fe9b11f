"""Smoke test of the end-to-end benchmark at a tiny run length.

Not part of the tier-1 suite (``testpaths`` is ``tests``); run it
explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py

Every workload runs with ``--seconds 1``, untraced and traced.  The test
checks that each metric of ``BENCHMARK.json`` is printed with its unit,
that every correctness check passes and no operation fails.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=120,
                          cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert f"{workload} {name} {value!r} {unit} (n=" in proc.stdout
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_all_workloads_agree_across_backends():
    # without --workload, run.py also compares the campaign artefacts
    # of the SQLite and the columnar backend
    proc = run("--seed", "5", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert len(result["metrics"]) == len(WORKLOADS) * len(
        SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(HERE.parents[1] / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
