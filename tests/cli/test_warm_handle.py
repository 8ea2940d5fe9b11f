"""fig8 on a warm SQLite handle after a run table is dropped elsewhere.

The handle's catalogue memo and temp-table pool are both warm when a
separate connection drops a run's table.  The drop moves the main
schema's cookie, so the next fig8 on the warm handle must write exactly
what a fresh handle writes, and not what it wrote before the drop.
"""

from __future__ import annotations

import pathlib
import sqlite3

from repro.cli import main
from repro.core.experiment import Experiment
from repro.db import SQLiteServer
from repro.workloads.beffio import generate_campaign
from repro.workloads.beffio_assets import (experiment_xml, fig8_query_xml,
                                           input_xml)
from repro.xmlio import parse_query_xml


def outputs(directory: pathlib.Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_fig8_on_a_warm_handle_after_a_run_table_is_dropped(tmp_path):
    (tmp_path / "experiment.xml").write_text(experiment_xml())
    (tmp_path / "input.xml").write_text(input_xml())
    (tmp_path / "fig8.xml").write_text(fig8_query_xml())
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

    exp = Experiment.open(SQLiteServer(tmp_path / "db"), "b_eff_io")
    try:
        query = parse_query_xml(str(tmp_path / "fig8.xml"))
        query.execute(exp, pushdown=True).write_all(str(tmp_path / "cold"))
        query.execute(exp, pushdown=True).write_all(str(tmp_path / "warm"))
        db = exp.store.db
        assert any(db.temp_pool.is_idle(t) for t in db.list_tables())
        other = sqlite3.connect(tmp_path / "db" / "b_eff_io.db")
        other.execute('DROP TABLE "rundata_3"')  # first listless/ufs run
        other.commit()
        other.close()
        query.execute(exp, pushdown=True).write_all(
            str(tmp_path / "dropped"))
    finally:
        exp.close()
    assert main(["query", "-e", "b_eff_io", "-q", str(tmp_path / "fig8.xml"),
                 "--no-cache", "-o", str(tmp_path / "fresh"), *dbdir]) == 0

    fresh = outputs(tmp_path / "fresh")
    assert fresh and outputs(tmp_path / "dropped") == fresh
    assert outputs(tmp_path / "cold") == outputs(tmp_path / "warm")
    assert outputs(tmp_path / "warm") != fresh
