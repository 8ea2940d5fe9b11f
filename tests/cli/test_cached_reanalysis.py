"""Cached re-analysis through the CLI writes what an uncached query writes.

The b_eff_io campaign is imported and fig8 and stddev run once through
the query cache.  Then three imports of one more listless/ufs run each,
and the delete of a matched run, change the data the cached entries
hold.  After each change, every leg must write byte-identical artefacts
to a ``--no-cache`` run: the cached serial, 2-node and ``--no-pushdown``
legs.  Each import extends the matched sources' entries by one run, and
``explain --trace`` prints that of a traced re-query; the cold run and
the delete extend nothing.  The same sequence runs on the SQLite
backend and on the columnar engine.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.obs.metrics import REGISTRY
from repro.workloads.beffio import generate_campaign
from repro.workloads.beffio_assets import (experiment_xml, fig8_query_xml,
                                           input_xml, stddev_query_xml)

QUERIES = ("fig8", "stddev")

#: the legs run after each import and after the delete, besides the
#: ``--no-cache`` reference
LEGS = {"serial": [], "par": ["--parallel", "2"],
        "serial_np": ["--no-pushdown"],
        "par_np": ["--no-pushdown", "--parallel", "2"]}

#: run 3 is the first listless/ufs run of the campaign
DELETED_RUN = "3"


def outputs(directory: pathlib.Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def write_inputs(ws: pathlib.Path) -> dict[str, list[str]]:
    """The control files, the campaign and three single listless/ufs
    runs to import later; their paths by batch."""
    for name, xml in (("experiment", experiment_xml()),
                      ("input", input_xml()), ("fig8", fig8_query_xml()),
                      ("stddev", stddev_query_xml())):
        (ws / f"{name}.xml").write_text(xml)
    batches = {"results": generate_campaign(repetitions=2)}
    for name, seed in (("more", 7), ("more2", 8), ("more3", 9)):
        batches[name] = generate_campaign(techniques=("listless",),
                                          repetitions=1, seed=seed)
    paths = {}
    for name, files in batches.items():
        (ws / name).mkdir()
        for fname, content in files:
            (ws / name / fname).write_text(content)
        paths[name] = sorted(str(p) for p in (ws / name).iterdir())
    return paths


@pytest.mark.parametrize("backend", ["sqlite", "memory"])
def test_cached_reanalysis_matches_uncached_runs(backend, tmp_path, capsys):
    ws = tmp_path
    paths = write_inputs(ws)
    db = ["--dbdir", str(ws / "db")]
    if backend == "memory":
        db += ["--backend", "memory"]

    def perfbase(*argv: str) -> None:
        assert main([*argv, *db]) == 0, argv

    def query(q: str, out: str, *flags: str) -> None:
        perfbase("query", "-e", "b_eff_io", "-q", str(ws / f"{q}.xml"),
                 *flags, "-o", str(ws / out / q))

    def step(name: str, legs, *, extends: bool) -> None:
        """Each leg of ``legs`` and a ``--no-cache`` run of each query:
        identical artefacts, and source entries extended or not."""
        before = REGISTRY.values().get("qcache.extensions", 0)
        for q in QUERIES:
            for leg in legs:
                query(q, f"{name}_{leg}", *LEGS[leg])
            query(q, f"{name}_fresh", "--no-cache")
        extended = REGISTRY.values().get("qcache.extensions", 0) - before
        assert (extended > 0) == extends, (name, extended)
        fresh = outputs(ws / f"{name}_fresh")
        assert len(fresh) >= 2
        for leg in legs:
            assert outputs(ws / f"{name}_{leg}") == fresh, (name, leg)

    def imported(batch: str) -> None:
        perfbase("input", "-e", "b_eff_io", "-d", str(ws / "input.xml"),
                 *paths[batch])

    perfbase("setup", "-d", str(ws / "experiment.xml"))
    imported("results")
    step("cold", ["serial", "par"], extends=False)

    # one more listless/ufs run matches one source of each query: the
    # cached re-runs mix hits on the untouched chains with misses that
    # extend their entries by the new run
    imported("more")
    step("re", list(LEGS), extends=True)
    assert outputs(ws / "cold_fresh") != outputs(ws / "re_fresh")

    # the 2-node leg extends the extended entries again, then the
    # serial one hits
    imported("more2")
    step("re2", ["par", "serial"], extends=True)

    # a traced cached re-query extends by one run, and explain says so
    imported("more3")
    trace = ws / "re3_fig8.jsonl"
    query("fig8", "re3_serial", "--trace", str(trace))
    query("fig8", "re3_fresh", "--no-cache")
    assert outputs(ws / "re3_serial") == outputs(ws / "re3_fresh")
    extended = [json.loads(line).get("attributes", {}).get("extended_runs")
                for line in trace.read_text().splitlines()]
    assert 1 in extended
    capsys.readouterr()
    assert main(["explain", "-q", str(ws / "fig8.xml"),
                 "--trace", str(trace)]) == 0
    assert "extended_runs=1" in capsys.readouterr().out

    # deleting a matched run changes the run sets: the cached re-runs
    # store their entries from nothing
    perfbase("delete", "-e", "b_eff_io", "-r", DELETED_RUN)
    step("del", list(LEGS), extends=False)
    assert outputs(ws / "re3_fresh" / "fig8") \
        != outputs(ws / "del_fresh" / "fig8")
