"""PR-6: in-memory columnar backend vs SQLite ``:memory:``.

A warm analytic suite — four aggregate queries (avg, stddev, median,
max) over a 160-run experiment — executed on both backends.  The two
backends must produce byte-identical artifacts.  How fast the columnar
:class:`~repro.db.memory_backend.MemoryDatabase` runs the suite
against SQLite is a reported figure (``memory_speedup``), not a gate.

The comparison is in-memory vs in-memory (``repro.MemoryServer`` is
SQLite ``:memory:``), so the delta is pure execution engine, not disk.

Emits the ``benchmarks/BENCH_pr6.json`` trajectory point.  Headline
numbers use ``time.perf_counter`` so the smoke run works under
``--benchmark-disable``.
"""

from __future__ import annotations

import json
import pathlib
import time
import zlib

import pytest

from repro import MemoryServer
from repro.db.memory_backend import MemoryDatabaseServer
from repro.query import Operator, Output, ParameterSpec, Query, Source
from _helpers import report

BENCH_JSON = pathlib.Path(__file__).parent / "BENCH_pr6.json"

#: 4 techniques x 40 reps, 6 chunk sizes x 4 access patterns per run
TECHNIQUES = ["mmap", "sendfile", "aio", "listless"]
REPS = 40
CHUNKS = [1, 2, 4, 8, 16, 32]
ACCESSES = ["write", "read", "rewrite", "reread"]
AGGREGATIONS = ("avg", "stddev", "median", "max")


def build_experiment(server):
    import sys
    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))
    from tests.conftest import fill_simple, make_simple_experiment

    def value(technique, rep, chunk, access):
        word = f"{technique}:{rep}:{chunk}:{access}"
        return zlib.crc32(word.encode()) % 10_000 / 100.0

    return fill_simple(make_simple_experiment(server, "backend_diff"),
                       techniques=TECHNIQUES, reps=REPS, chunks=CHUNKS,
                       accesses=ACCESSES, value=value)


def query_suite():
    return [Query([
        Source("s", parameters=[ParameterSpec("S_chunk")],
               results=["bw"]),
        Operator("a", agg, ["s"]),
        Output("o", ["a"], format="csv"),
    ], name=f"q_{agg}") for agg in AGGREGATIONS]


def run_suite(experiment):
    artifacts = {}
    for query in query_suite():
        result = query.execute(experiment)
        for artifact in result.artifacts:
            artifacts[f"{query.name}/{artifact.name}"] = \
                artifact.content
    return artifacts


@pytest.fixture(scope="module")
def experiments():
    return {"sqlite": build_experiment(MemoryServer()),
            "memory": build_experiment(MemoryDatabaseServer())}


def warm_time(experiment):
    run_suite(experiment)  # warm caches (parse / prepared statements)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        run_suite(experiment)
        best = min(best, time.perf_counter() - t0)
    return best


class TestBackendDiff:
    def test_identical_artifacts(self, experiments):
        artifacts = {name: run_suite(exp)
                     for name, exp in experiments.items()}
        assert artifacts["memory"] == artifacts["sqlite"]

    def test_memory_backend_warm_suite(self, benchmark, experiments):
        run_suite(experiments["memory"])
        benchmark(lambda: run_suite(experiments["memory"]))

    def test_sqlite_backend_warm_suite(self, benchmark, experiments):
        run_suite(experiments["sqlite"])
        benchmark(lambda: run_suite(experiments["sqlite"]))


class TestTrajectoryPoint:
    def test_write_bench_json(self, experiments):
        sqlite_s = warm_time(experiments["sqlite"])
        memory_s = warm_time(experiments["memory"])
        identical = run_suite(experiments["sqlite"]) \
            == run_suite(experiments["memory"])

        point = {
            "pr": 6,
            "bench": "backend_diff",
            "runs": len(TECHNIQUES) * REPS,
            "rows_per_run": len(CHUNKS) * len(ACCESSES),
            "suite_queries": len(AGGREGATIONS),
            "sqlite_ms": round(sqlite_s * 1e3, 2),
            "memory_ms": round(memory_s * 1e3, 2),
            "memory_speedup": round(sqlite_s / memory_s, 2),
            "identical_artifacts": identical,
        }
        BENCH_JSON.write_text(json.dumps(point, indent=2) + "\n")
        report("backend_diff",
               f"{point['runs']} runs x {point['rows_per_run']} rows, "
               f"{point['suite_queries']}-query warm suite: sqlite "
               f"{point['sqlite_ms']}ms, columnar "
               f"{point['memory_ms']}ms "
               f"(x{point['memory_speedup']}), identical="
               f"{point['identical_artifacts']}\n")
        assert identical
