"""PR-8: SQL pushdown — fused chains vs the temp-table protocol.

A *cold* four-query chained suite (the paper's Fig. 7 relative-
difference query, the Section-5 stddev check, and two synthetic
``source → aggregate → linear → linear/norm`` chains) over the 120-run
b_eff_io experiment, executed with and without pushdown on both
storage backends.  Every suite query contains a fusable chain, so
the suite measures what fusing saves.  The fused runs must
be byte-identical to the unfused ones: the point of fusing is deleting
CREATE TABLE + INSERT..SELECT round-trips from the cold path without
changing an answer.  Its fused timing on the paper's campaign is what
``benchmarks/e2e`` reports.
"""

from __future__ import annotations

import pytest

from repro.db.memory_backend import MemoryDatabaseServer
from repro.query import Operator, Output, ParameterSpec, Query, Source
from repro.workloads.beffio_assets import (fig8_query_xml,
                                           stddev_query_xml)
from repro.xmlio import parse_query_xml


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
