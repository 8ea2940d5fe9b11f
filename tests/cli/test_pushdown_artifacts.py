"""fig8 and stddev write the same artefacts however the CLI runs them.

Fused, unfused (``--no-pushdown``), unfused with one run per source
statement, on 2 nodes, and on 2 nodes through a cold and then a warm
query cache: every leg must write byte-identical artefacts on the
SQLite backend.  The warm 2-node profile lists every fig8 element,
the upfront cache hits included.
"""

from __future__ import annotations

import pathlib
import re

from repro.cli import main
from repro.query import source as source_module
from repro.workloads.beffio import generate_campaign
from repro.workloads.beffio_assets import (experiment_xml, fig8_query_xml,
                                           input_xml, stddev_query_xml)

#: a line of ``--profile``'s element table
PROFILE_LINE = re.compile(r"^[A-Za-z0-9_]+ +(source|operator|combiner|"
                          r"output) ", re.MULTILINE)


def outputs(directory: pathlib.Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_fused_unfused_and_two_node_artifacts_are_identical(
        tmp_path, capsys, monkeypatch):
    for name, xml in (("experiment", experiment_xml()),
                      ("input", input_xml()), ("fig8", fig8_query_xml()),
                      ("stddev", stddev_query_xml())):
        (tmp_path / f"{name}.xml").write_text(xml)
    results = tmp_path / "results"
    results.mkdir()
    for fname, content in generate_campaign(repetitions=2):
        (results / fname).write_text(content)
    dbdir = ["--dbdir", str(tmp_path / "db")]
    assert main(["setup", "-d", str(tmp_path / "experiment.xml"),
                 *dbdir]) == 0
    assert main(["input", "-e", "b_eff_io", "-d",
                 str(tmp_path / "input.xml"),
                 *sorted(map(str, results.iterdir())), *dbdir]) == 0

    # fig8 fuses into one group (two source->max chains joined by the
    # comparison); stddev fuses whole: its source feeds only the mean
    # and spread aggregates the combiner joins, so one GROUP BY
    # computes both
    legs = {"fused": ["--no-cache"],
            "plain": ["--no-cache", "--no-pushdown"],
            "chunked": ["--no-cache", "--no-pushdown"],
            "par": ["--no-cache", "--parallel", "2"],
            # a cached 2-node run fills the cache, the next runs warm
            "par_cold": ["--parallel", "2"],
            "par_warm": ["--parallel", "2", "--profile"]}
    profiles = {}
    for q in ("fig8", "stddev"):
        for leg, flags in legs.items():
            with monkeypatch.context() as patch:
                if leg == "chunked":  # each source spans two statements
                    patch.setattr(source_module,
                                  "MAX_COMPOUND_OPERANDS", 1)
                capsys.readouterr()
                assert main(["query", "-e", "b_eff_io", "-q",
                             str(tmp_path / f"{q}.xml"), *flags, "-o",
                             str(tmp_path / leg / q), *dbdir]) == 0
            profiles[leg, q] = capsys.readouterr().out

    fused = outputs(tmp_path / "fused")
    assert len(fused) >= 2
    for leg in legs:
        assert outputs(tmp_path / leg) == fused, leg
    assert len(PROFILE_LINE.findall(profiles["par_warm", "fig8"])) == 8
