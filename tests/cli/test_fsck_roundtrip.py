"""``perfbase fsck`` round-trip on a deliberately damaged experiment.

One instance of each repairable damage class is planted in a file-backed
experiment: a leaked query temp table, an orphan cache payload table,
``pb_run_files`` rows of a nonexistent run and a run table without its
``pb_runs`` row.  A dry run must report the damage and exit 4, the
repair must exit 0, and a second dry run must find nothing and exit 0.
"""

from __future__ import annotations

from repro.cli import main
from repro.db import SQLiteServer

from ..conftest import fill_simple, make_simple_experiment


def damaged_fixture(directory) -> None:
    exp = make_simple_experiment(SQLiteServer(directory), "fixture")
    fill_simple(exp, reps=1)
    db = exp.store.db
    db.create_table("pbtmp_leak_0", [("v", "REAL")])
    db.create_table("pbc_deadbeef", [("v", "REAL")])
    db.execute("INSERT INTO pb_run_files (run_index, filename, checksum) "
               "VALUES (999, 'ghost.sum', 'x')")
    db.create_table("rundata_999", [("pb_dataset", "INTEGER")])
    db.commit()
    exp.close()


def fsck(directory, *flags) -> int:
    return main(["fsck", "-e", "fixture", "--dbdir", str(directory),
                 *flags])


def test_dry_run_repair_dry_run(tmp_path, capsys):
    damaged_fixture(tmp_path)
    capsys.readouterr()
    assert fsck(tmp_path, "--dry-run") == 4
    report = capsys.readouterr().out
    for finding in ("temp-table", "orphan-cache", "orphan-files",
                    "orphan-rundata"):
        assert finding in report
    assert fsck(tmp_path) == 0
    assert "4 finding(s)" in capsys.readouterr().out
    assert fsck(tmp_path, "--dry-run") == 0
    assert "clean" in capsys.readouterr().out
