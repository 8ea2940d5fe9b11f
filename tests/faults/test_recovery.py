"""Crash consistency: crashes mid-store, fsck detection and repair,
schema-counter invalidation across a repair, and the perfbase fsck CLI."""

from __future__ import annotations

import pytest

from repro import Experiment
from repro.cli.main import main
from repro.db import SQLiteServer, fsck
from repro.db.recovery import TEMP_TABLE_PREFIXES
from repro.faults import CrashFault, FaultPlan, use_faults
from repro.query import Operator, Output, ParameterSpec, Query, Source
from repro.query.cache import CACHE_PREFIX, CACHE_TABLE

from ..conftest import fill_simple, make_simple_experiment

pytestmark = pytest.mark.faults


def avg_query(name="fq"):
    s = Source("s", parameters=[ParameterSpec("S_chunk")],
               results=["bw"])
    a = Operator("a", op="avg", inputs=["s"])
    o = Output("o", inputs=["a"], format="csv")
    return Query([s, a, o], name=name)


@pytest.fixture
def exp(server):
    return fill_simple(make_simple_experiment(server))


def table_names(db, prefix):
    return [t for t in db.list_tables() if t.startswith(prefix)]


class TestFsckDetection:
    def test_clean_database(self, exp):
        report = fsck(exp.store)
        assert report.clean
        assert report.summary().endswith("clean")

    def test_leaked_temp_table(self, exp):
        db = exp.store.db
        db.create_table("pbtmp_leak_0", [("v", "REAL")])
        db.create_table("pbq_fig2_x_1", [("v", "REAL")])
        report = fsck(exp.store)
        assert report.by_category() == {"temp-table": 2}
        for prefix in TEMP_TABLE_PREFIXES:
            assert not table_names(db, prefix)

    def test_orphan_cache_table(self, exp):
        exp.query_cache()  # creates the metadata table
        db = exp.store.db
        db.create_table(CACHE_PREFIX + "deadbeef", [("v", "REAL")])
        report = fsck(exp.store)
        assert report.by_category() == {"orphan-cache": 1}
        assert not table_names(db, CACHE_PREFIX)

    def test_cache_row_without_table(self, exp):
        qcache = exp.query_cache()
        avg_query().execute(exp, cache=qcache)
        db = exp.store.db
        (table,) = [r[0] for r in db.fetchall(
            f"SELECT table_name FROM {CACHE_TABLE}")][:1]
        db.drop_table(table)
        db.commit()
        report = fsck(exp.store)
        assert "cache-no-table" in report.by_category()
        assert db.fetchall(
            f"SELECT 1 FROM {CACHE_TABLE} WHERE table_name=?",
            (table,)) == []

    def test_orphan_run_files_and_once_rows(self, exp):
        db = exp.store.db
        db.execute("INSERT INTO pb_run_files (run_index, filename, "
                   "checksum) VALUES (999, 'ghost.sum', 'x')")
        db.execute("INSERT INTO pb_once (run_index) VALUES (999)")
        db.commit()
        report = fsck(exp.store)
        counts = report.by_category()
        assert counts["orphan-files"] == 1
        assert counts["orphan-once"] == 1
        assert db.fetchall(
            "SELECT 1 FROM pb_run_files WHERE run_index=999") == []
        assert db.fetchall(
            "SELECT 1 FROM pb_once WHERE run_index=999") == []

    def test_active_run_without_rundata(self, exp):
        db = exp.store.db
        index = exp.run_indices()[0]
        db.drop_table(f"rundata_{index}")
        db.commit()
        report = fsck(exp.store)
        assert report.by_category()["run-no-data"] == 1
        assert index not in exp.run_indices()

    def test_orphan_rundata_table(self, exp):
        db = exp.store.db
        db.create_table("rundata_999", [("pb_dataset", "INTEGER")])
        report = fsck(exp.store)
        assert report.by_category()["orphan-rundata"] == 1
        assert not db.table_exists("rundata_999")

    def test_dry_run_reports_without_repairing(self, exp):
        db = exp.store.db
        db.create_table("pbtmp_leak_0", [("v", "REAL")])
        report = fsck(exp.store, repair=False)
        assert not report.repaired
        assert report.by_category() == {"temp-table": 1}
        assert "would repair" in report.summary()
        assert db.table_exists("pbtmp_leak_0")
        # the real pass then repairs; a second pass is clean
        assert not fsck(exp.store).clean
        assert fsck(exp.store).clean

    def test_repair_is_idempotent(self, exp):
        db = exp.store.db
        db.create_table("pbtmp_leak_0", [("v", "REAL")])
        db.create_table("rundata_999", [("pb_dataset", "INTEGER")])
        assert not fsck(exp.store).clean
        assert fsck(exp.store).clean


class TestCrashConsistency:
    def test_crash_before_cache_commit_leaves_orphan(self, exp):
        """The genuine damage class: the pbc_ payload table autocommits
        as DDL, the crash abandons the metadata INSERT — after
        rollback (= reopen) the table is an orphan that fsck drops."""
        qcache = exp.query_cache()
        result = avg_query().execute(exp, keep_temp_tables=True)
        vector = result.vectors["a"]
        element = avg_query().elements["a"]
        key = element.fingerprint(["h0"])
        # close the implicit transaction the query's temp-table writes
        # opened, so the payload-table DDL below really autocommits,
        # and create the metadata table now — its one-time setup commit
        # must not consume the crash budget below
        exp.store.db.commit()
        qcache._ensure()
        plan = FaultPlan()
        plan.add("crash", "db.commit", times=1)
        with use_faults(plan):
            with pytest.raises(CrashFault):
                qcache.put(key, element, vector, schema_counter=0)
        db = exp.store.db
        db.rollback()  # the "reopen": the abandoned txn evaporates
        orphans = table_names(db, CACHE_PREFIX)
        assert len(orphans) == 1
        assert db.fetchall(f"SELECT key FROM {CACHE_TABLE}") == []
        report = fsck(exp.store)
        # (the kept temp tables of the vector-producing run show up as
        # leaked temp tables alongside the orphan — both are damage)
        assert report.by_category()["orphan-cache"] == 1
        assert not table_names(db, CACHE_PREFIX)
        # the cache works again after the repair
        warm = avg_query().execute(exp, cache=qcache,
                                   keep_temp_tables=True)
        assert warm.vectors["a"].rows()

    def test_crash_at_cache_put_hook_is_unswallowable(self, exp):
        # the hook sits inside the retried function: the BaseException
        # must pass the retry policy and the cache's error handling
        qcache = exp.query_cache()
        plan = FaultPlan()
        plan.add("crash", "cache.put")
        with use_faults(plan):
            with pytest.raises(CrashFault):
                avg_query().execute(exp, cache=qcache)

    def test_crash_during_batch_commit_rolls_back(self, tmp_path):
        server = SQLiteServer(tmp_path)
        exp = make_simple_experiment(server, "crashy")
        fill_simple(exp, reps=1)
        before = exp.run_indices()
        plan = FaultPlan()
        plan.add("crash", "db.commit", times=1)
        with use_faults(plan):
            with pytest.raises(CrashFault):
                with exp.store.batch():
                    fill_simple(exp, techniques=("mid",), reps=2)
        exp.close()  # killed process: the open transaction is abandoned
        reopened = Experiment.open(server, "crashy")
        assert reopened.run_indices() == before
        # the explicit BEGIN covered the in-batch DDL too: nothing to
        # repair after the rollback
        assert fsck(reopened.store).clean
        reopened.close()

    def test_data_version_invalidation_survives_repair(self, exp):
        qcache = exp.query_cache()
        avg_query().execute(exp, cache=qcache)  # cold: fills the cache
        # a warm hit is served from a persistent pbc_ table — readable
        rows_before = avg_query().execute(
            exp, cache=qcache).vectors["a"].rows()
        counter_before = exp.store.schema_counter()
        db = exp.store.db
        index = exp.run_indices()[-1]
        db.drop_table(f"rundata_{index}")  # simulated lost run data
        db.commit()
        report = fsck(exp.store)
        assert report.by_category()["run-no-data"] == 1
        assert exp.store.schema_counter() > counter_before
        # warm run after the repair recomputes instead of serving the
        # stale vector, and matches a cache-less run on the repaired db
        warm = avg_query().execute(exp, cache=qcache,
                                   keep_temp_tables=True)
        fresh = avg_query().execute(exp, keep_temp_tables=True)
        assert warm.vectors["a"].rows() == fresh.vectors["a"].rows()
        assert warm.vectors["a"].rows() != rows_before


class TestFsckCli:
    def corrupt(self, dbdir, name="demo"):
        server = SQLiteServer(dbdir)
        exp = make_simple_experiment(server, name)
        fill_simple(exp, reps=1)
        exp.store.db.create_table("pbtmp_leak_0", [("v", "REAL")])
        exp.store.db.commit()
        exp.close()

    def test_dry_run_then_repair_round_trip(self, tmp_path, capsys):
        self.corrupt(tmp_path)
        argv = ["fsck", "-e", "demo", "--dbdir", str(tmp_path)]
        assert main(argv + ["--dry-run"]) == 4
        out = capsys.readouterr().out
        assert "dry-run" in out and "temp-table" in out
        assert main(argv) == 0
        assert "repaired" in capsys.readouterr().out
        assert main(argv + ["--dry-run"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_unknown_experiment_fails_cleanly(self, tmp_path, capsys):
        assert main(["fsck", "-e", "ghost",
                     "--dbdir", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_env_fault_plan_reaches_commands(self, tmp_path,
                                             monkeypatch):
        self.corrupt(tmp_path, "envy")
        monkeypatch.setenv("PERFBASE_FAULTS", "crash@db.run:times=1")
        with pytest.raises(CrashFault):
            main(["fsck", "-e", "envy", "--dbdir", str(tmp_path)])
        monkeypatch.delenv("PERFBASE_FAULTS")
        assert main(["fsck", "-e", "envy",
                     "--dbdir", str(tmp_path)]) == 0
