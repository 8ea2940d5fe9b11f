"""PR-8: SQL pushdown — fused chains vs the temp-table protocol.

A *cold* four-query chained suite (the paper's Fig. 7 relative-
difference query, the Section-5 stddev check, and two synthetic
``source → aggregate → linear → linear/norm`` chains) over the 120-run
b_eff_io experiment, executed with and without pushdown on both
storage backends.  Every suite query contains a fusable chain, so
the suite measures what fusing saves.  The fused runs must
be byte-identical to the unfused ones and measurably faster: the
whole point of fusing is deleting CREATE TABLE + INSERT..SELECT
round-trips from the cold path.

Emits the ``benchmarks/BENCH_pr8.json`` trajectory point.  Headline
numbers use ``time.perf_counter`` so the smoke run works under
``--benchmark-disable``.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.db.memory_backend import MemoryDatabaseServer
from repro.query import Operator, Output, ParameterSpec, Query, Source
from repro.workloads.beffio_assets import (fig8_query_xml,
                                           stddev_query_xml)
from repro.xmlio import parse_query_xml
from _helpers import report

BENCH_JSON = pathlib.Path(__file__).parent / "BENCH_pr8.json"


def _chain_source(name, technique):
    return Source(name, parameters=[
        ParameterSpec("technique", technique, show=False),
        ParameterSpec("fs", "ufs", show=False),
        ParameterSpec("S_chunk"),
        ParameterSpec("access"),
    ], results=["B_scatter"])


def query_suite():
    """Four cold queries, each with at least one fusable chain."""
    return [
        parse_query_xml(fig8_query_xml()),
        parse_query_xml(stddev_query_xml()),
        Query([
            _chain_source("s", "listless"),
            Operator("mean", "avg", ["s"]),
            Operator("scaled", "scale", ["mean"], factor=2.0),
            Operator("normed", "norm", ["scaled"], mode="max"),
            Output("o", ["normed"], format="csv"),
        ], name="chain_norm"),
        Query([
            _chain_source("s", "listbased"),
            Operator("peak", "max", ["s"]),
            Operator("shifted", "offset", ["peak"], summand=-1.0),
            Operator("halved", "scale", ["shifted"], factor=0.5),
            Output("o", ["halved"], format="csv"),
        ], name="chain_linear"),
    ]


def run_suite(experiment, pushdown):
    artifacts = {}
    for query in query_suite():
        result = query.execute(experiment, pushdown=pushdown)
        for artifact in result.artifacts:
            artifacts[f"{query.name}/{artifact.name}"] = \
                artifact.content
    return artifacts


def cold_time(experiment, pushdown):
    """Best of 3 cold suite executions (no cache is ever involved;
    'cold' here means every element recomputes)."""
    run_suite(experiment, pushdown)  # warm parse / prepared statements
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        run_suite(experiment, pushdown)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def experiments():
    from conftest import build_large_experiment
    return {
        "sqlite": build_large_experiment("beffio_pushdown"),
        "memory": build_large_experiment("beffio_pushdown_mem",
                                         server=MemoryDatabaseServer()),
    }


class TestPushdownBench:
    def test_every_suite_query_fuses(self):
        for query in query_suite():
            assert query.pushdown_plan().groups, \
                f"suite query {query.name!r} fuses nothing"

    def test_identical_artifacts(self, experiments):
        for name, exp in experiments.items():
            assert run_suite(exp, True) == run_suite(exp, False), name

    def test_fused_cold_suite_sqlite(self, benchmark, experiments):
        benchmark(lambda: run_suite(experiments["sqlite"], True))

    def test_unfused_cold_suite_sqlite(self, benchmark, experiments):
        benchmark(lambda: run_suite(experiments["sqlite"], False))


class TestTrajectoryPoint:
    def test_write_bench_json(self, experiments):
        statements_saved = sum(
            q.pushdown_plan().statements_saved for q in query_suite())
        point = {
            "pr": 8,
            "bench": "pushdown",
            "runs": 120,
            "suite_queries": len(query_suite()),
            "statements_saved_per_suite": statements_saved,
        }
        for name, exp in experiments.items():
            unfused_s = cold_time(exp, False)
            fused_s = cold_time(exp, True)
            point[f"{name}_unfused_ms"] = round(unfused_s * 1e3, 2)
            point[f"{name}_fused_ms"] = round(fused_s * 1e3, 2)
            point[f"{name}_speedup"] = round(unfused_s / fused_s, 2)
            point[f"{name}_identical_artifacts"] = \
                run_suite(exp, True) == run_suite(exp, False)
        BENCH_JSON.write_text(json.dumps(point, indent=2) + "\n")
        report("pushdown",
               "cold 4-query chained suite, 120 runs, "
               f"{statements_saved} statements saved per suite: "
               f"sqlite {point['sqlite_unfused_ms']}ms -> "
               f"{point['sqlite_fused_ms']}ms "
               f"(x{point['sqlite_speedup']}), columnar "
               f"{point['memory_unfused_ms']}ms -> "
               f"{point['memory_fused_ms']}ms "
               f"(x{point['memory_speedup']}); identical="
               f"{point['sqlite_identical_artifacts'] and point['memory_identical_artifacts']}\n")
        assert point["sqlite_identical_artifacts"]
        assert point["memory_identical_artifacts"]
        # fusing must pay for itself on the cold path where statement
        # round-trips dominate (sqlite); on the columnar engine the
        # round-trips being fused away are cheap in-process calls, so
        # the margin sits inside scheduler noise on a loaded machine —
        # gate on "no meaningful regression" there instead.
        assert point["sqlite_fused_ms"] < point["sqlite_unfused_ms"]
        assert point["memory_fused_ms"] < point["memory_unfused_ms"] * 1.2
