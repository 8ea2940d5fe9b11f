"""``perfbase service stress --scratch``: the command passes under
injected lock and commit faults, exits 1 on a report with problems, and
removes its scratch directory however it ends.  The 200-client run
under the same fault plan is
``tests/service/test_stress.py::test_lock_and_io_faults_file_backend``.
"""

import pathlib
import tempfile

import pytest

from repro.cli import service as service_cli
from repro.cli.main import main

pytestmark = pytest.mark.service

FAULTS = "seed=11;lock@db.run:p=0.02;io@db.commit:p=0.01"


@pytest.fixture
def scratch_root(tmp_path, monkeypatch):
    """The directory ``tempfile`` makes scratch directories in."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


def stress() -> int:
    return main(["service", "stress", "--scratch", "--clients", "24",
                 "--shards", "2", "--faults", FAULTS])


def test_scratch_run_passes_and_leaves_nothing(scratch_root, capsys):
    assert stress() == 0
    out = capsys.readouterr().out
    assert "stress scratch directory: " + str(scratch_root) in out
    assert "stress: OK" in out
    assert list(scratch_root.iterdir()) == []


def test_report_with_problems_exits_1(scratch_root, capsys, monkeypatch):
    real = service_cli.run_stress

    def with_a_problem(*args, **kwargs):
        report = real(*args, **kwargs)
        report.problems.append("planted problem")
        return report

    monkeypatch.setattr(service_cli, "run_stress", with_a_problem)
    assert stress() == 1
    out = capsys.readouterr().out
    assert "PROBLEM: planted problem" in out
    assert "stress: FAILED" in out
    assert list(scratch_root.iterdir()) == []


def test_failing_run_removes_its_directory(scratch_root, capsys,
                                           monkeypatch):
    def failing(directory, **kwargs):
        (pathlib.Path(directory) / "shard.db").write_text("partial")
        raise OSError("disk full")

    monkeypatch.setattr(service_cli, "run_stress", failing)
    assert stress() == 1
    assert "perfbase: error: disk full" in capsys.readouterr().err
    assert list(scratch_root.iterdir()) == []
