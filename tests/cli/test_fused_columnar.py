"""Fused fig8 and stddev on the columnar engine, run twice in one process.

Both runs must write exactly the artefacts the fused SQLite run writes,
and the second compiles no plan at all: every SELECT of a fused query,
its run selection, its ``INSERT .. SELECT`` and each ``UNION ALL``
operand, finds the plan the first run stored under its shape.
"""

from __future__ import annotations

import pathlib

from repro.cli import main
from repro.db import memory_backend
from repro.obs.metrics import REGISTRY
from repro.workloads.beffio import generate_campaign
from repro.workloads.beffio_assets import (experiment_xml, fig8_query_xml,
                                           input_xml, stddev_query_xml)


def outputs(directory: pathlib.Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def plans_compiled() -> int:
    return REGISTRY.values().get("db.plans_compiled", 0)


def test_warm_fused_queries_compile_nothing_and_match_sqlite(tmp_path):
    for name, xml in (("experiment", experiment_xml()),
                      ("input", input_xml()), ("fig8", fig8_query_xml()),
                      ("stddev", stddev_query_xml())):
        (tmp_path / f"{name}.xml").write_text(xml)
    results = tmp_path / "results"
    results.mkdir()
    for fname, content in generate_campaign(repetitions=2):
        (results / fname).write_text(content)
    files = sorted(map(str, results.iterdir()))

    def workflow(backend: list[str]) -> None:
        assert main(["setup", "-d", str(tmp_path / "experiment.xml"),
                     *backend]) == 0
        assert main(["input", "-e", "b_eff_io", "-d",
                     str(tmp_path / "input.xml"), *files, *backend]) == 0

    def suite(out: str, backend: list[str]) -> None:
        for q in ("fig8", "stddev"):
            assert main(["query", "-e", "b_eff_io", "-q",
                         str(tmp_path / f"{q}.xml"), "--no-cache", "-o",
                         str(tmp_path / out / q), *backend]) == 0

    sqlite = ["--dbdir", str(tmp_path / "db")]
    workflow(sqlite)
    suite("fused", sqlite)

    memory = ["--backend", "memory", "--dbdir", str(tmp_path / "memdb")]
    workflow(memory)
    memory_backend._PARSE_CACHE.clear()     # no plan stored yet
    compiled = []
    for run in ("mem_fused", "mem_fused_again"):
        before = plans_compiled()
        suite(run, memory)
        compiled.append(plans_compiled() - before)
    assert compiled[0] > 0 and compiled[1] == 0, compiled

    fused = outputs(tmp_path / "fused")
    assert len(fused) >= 2
    assert outputs(tmp_path / "mem_fused") == fused
    assert outputs(tmp_path / "mem_fused_again") == fused
