"""Importer round-trip: the full b_eff_io campaign imported through
the XML control files must land identically in every backend."""

import pytest

from repro import Experiment
from repro.obs import MetricsView
from repro.parse import Importer
from repro.testing import run_differential, snapshot_store
from repro.workloads.beffio import generate_campaign
from repro.workloads.beffio_assets import experiment_xml, input_xml
from repro.xmlio import parse_experiment_xml, parse_input_xml

pytestmark = pytest.mark.diffdb


@pytest.fixture(scope="module")
def campaign():
    return generate_campaign(repetitions=2)


def build_beffio(server, campaign):
    definition = parse_experiment_xml(experiment_xml())
    exp = Experiment.create(server, definition.name,
                            list(definition.variables), definition.info)
    importer = Importer(exp, parse_input_xml(input_xml()))
    for fname, content in campaign:
        importer.import_text(content, fname)
    return exp


def test_campaign_roundtrip(campaign):
    def scenario(server, backend):
        exp = build_beffio(server, campaign)
        return snapshot_store(exp.store)
    run_differential(scenario)


def test_batch_import_counts_the_same_rows_affected(campaign, tmp_path):
    """``perfbase input``'s path, one ``import_files`` batch over the
    campaign's files, counts the same ``db.rows_affected`` on every
    backend: each reports the rows its statements wrote alike."""
    paths = []
    for fname, content in campaign:
        (tmp_path / fname).write_text(content)
        paths.append(str(tmp_path / fname))

    def scenario(server, backend):
        definition = parse_experiment_xml(experiment_xml())
        exp = Experiment.create(server, definition.name,
                                list(definition.variables),
                                definition.info)
        importer = Importer(exp, parse_input_xml(input_xml()))
        view = MetricsView()
        try:
            report = importer.import_files(paths)
        finally:
            view.close()
        return {"runs": report.n_imported,
                "rows_affected": view.counter("db.rows_affected").value}
    outcomes = run_differential(scenario)
    assert outcomes["sqlite"]["rows_affected"] > 0


def test_duplicate_import_detection(campaign):
    """Checksum-based duplicate detection (find_import) must agree."""
    def scenario(server, backend):
        exp = build_beffio(server, campaign)
        store = exp.store
        fname, content = campaign[0]
        from repro.db import content_checksum
        return {
            "known": dict(store.known_checksums()),
            "dup": store.find_import(content_checksum(content)),
            "missing": store.find_import("0" * 16),
        }
    run_differential(scenario)


def test_run_deletion_roundtrip(campaign):
    """Deleting a run must leave identical visible state behind."""
    def scenario(server, backend):
        exp = build_beffio(server, campaign)
        indices = exp.store.run_indices()
        exp.delete_run(indices[1])
        return {
            "store": snapshot_store(exp.store),
            "active": exp.store.run_indices(),
            "all": exp.store.run_indices(include_inactive=True),
        }
    run_differential(scenario)
