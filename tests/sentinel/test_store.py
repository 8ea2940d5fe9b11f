"""Baseline storage: names, samples and the reserved check label."""

from __future__ import annotations

import pytest

from repro.core.errors import DefinitionError, PerfbaseError
from repro.db.recovery import fsck
from repro.core.experiment import Experiment
from repro.sentinel import BaselineStore, EXPERIMENT_NAME

from .conftest import write_samples, write_trace

pytestmark = pytest.mark.sentinel


class TestBaselineLifecycle:
    def test_add_and_get(self, server, tmp_path):
        store = BaselineStore(server)
        paths = write_samples(tmp_path, 4)
        info = store.add("v1", "fig8", paths)
        assert info.name == "v1"
        assert info.n_samples == 4
        assert info.n_elements == 2
        assert store.get("v1").workload == "fig8"
        store.close()

    def test_add_creates_experiment(self, server, tmp_path):
        store = BaselineStore(server)
        assert not store.exists
        store.add("v1", "fig8", write_samples(tmp_path, 4))
        assert EXPERIMENT_NAME in server.list_databases()
        store.close()

    def test_open_without_experiment_fails(self, server):
        store = BaselineStore(server)
        with pytest.raises(PerfbaseError, match="baseline add"):
            store.open()

    def test_reserved_name_rejected(self, server, tmp_path):
        store = BaselineStore(server)
        with pytest.raises(DefinitionError, match="reserved"):
            store.add("@check", "fig8", write_samples(tmp_path, 1))

    def test_duplicate_needs_force(self, server, tmp_path):
        store = BaselineStore(server)
        paths = write_samples(tmp_path, 4)
        store.add("v1", "fig8", paths)
        with pytest.raises(DefinitionError, match="--force"):
            store.add("v1", "fig8", paths)
        info = store.add("v1", "fig8", paths[:2], force=True)
        assert info.n_samples == 2
        store.close()

    def test_list_and_remove(self, server, tmp_path):
        store = BaselineStore(server)
        store.add("v1", "fig8", write_samples(tmp_path, 4))
        store.add("v2", "stddev", write_samples(tmp_path, 3))
        assert [i.name for i in store.baselines()] == ["v1", "v2"]
        assert store.remove("v1") == 4
        assert [i.name for i in store.baselines()] == ["v2"]
        with pytest.raises(PerfbaseError, match="no baseline"):
            store.remove("v1")
        store.close()

    def test_get_unknown_names_known(self, server, tmp_path):
        store = BaselineStore(server)
        store.add("v1", "fig8", write_samples(tmp_path, 4))
        with pytest.raises(PerfbaseError, match="v1"):
            store.get("nope")
        store.close()


class TestElementSamples:
    def test_one_value_per_run(self, server, tmp_path):
        store = BaselineStore(server)
        store.add("v1", "fig8", write_samples(tmp_path, 5,
                                              src_wall=0.010))
        samples = store.element_samples("v1")
        assert set(samples) == {"src", "agg"}
        src = samples["src"]
        assert src.kind == "source"
        assert src.n() == 5
        assert src.values["wall_s"] == pytest.approx(
            [0.0099, 0.0100, 0.0101, 0.0099, 0.0100], abs=1e-9)
        assert src.values["rows"] == [10.0] * 5

    def test_db_spans_ignored(self, server, tmp_path):
        store = BaselineStore(server)
        store.add("v1", "fig8", write_samples(tmp_path, 4))
        assert "stmt" not in store.element_samples("v1")

    def test_check_label_replaced_per_workload(self, server, tmp_path):
        store = BaselineStore(server)
        store.add("v1", "fig8", write_samples(tmp_path, 4))
        store.import_check("fig8", write_samples(tmp_path, 2))
        assert store.element_samples("@check")["src"].n() == 2
        # a second check replaces, never accumulates
        store.import_check("fig8", write_samples(tmp_path, 3))
        assert store.element_samples("@check")["src"].n() == 3
        # the check label never shows up as a baseline
        assert [i.name for i in store.baselines()] == ["v1"]
        store.close()

    def test_multiple_spans_per_element_sum(self, server, tmp_path):
        store = BaselineStore(server)
        path = tmp_path / "t.jsonl"
        write_trace(path, [("src", "source", 0.010, 10),
                           ("src", "source", 0.020, 5)])
        store.add("v1", "fig8", [str(path)])
        src = store.element_samples("v1")["src"]
        assert src.values["wall_s"] == pytest.approx([0.030])
        assert src.values["rows"] == [15.0]


class TestFsckRoundTrip:
    def test_baselines_survive_fsck(self, server, tmp_path):
        store = BaselineStore(server)
        store.add("v1", "fig8", write_samples(tmp_path, 4))
        store.import_check("fig8", write_samples(tmp_path, 2))
        store.close()
        exp = Experiment.open(server, EXPERIMENT_NAME)
        report = fsck(exp.store, repair=True)
        assert report.clean
        exp.close()
        store = BaselineStore(server)
        assert [i.name for i in store.baselines()] == ["v1"]
        assert store.element_samples("v1")["src"].n() == 4
        store.close()
