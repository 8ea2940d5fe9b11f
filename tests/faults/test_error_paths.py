"""Error-path bugfixes: best-effort temp-table teardown, unreadable
files in multi-file imports, lock injection recovered by the adopted
retry policy, and the no-leak guarantee after failing queries."""

from __future__ import annotations

import pytest

from repro.core.errors import DatabaseError, InputError
from repro.db import SQLiteDatabase, TempTableManager
from repro.faults import (FaultPlan, InjectedIOError, TransientLockFault,
                          use_faults)
from repro.obs import InMemorySink, Tracer, use_tracer
from repro.parse import (Importer, InputDescription, MissingPolicy,
                         NamedLocation, TabularColumn, TabularLocation)
from repro.query import Operator, Output, ParameterSpec, Query, Source

from ..conftest import fill_simple, make_simple_experiment

pytestmark = pytest.mark.faults


class FlakyDropDB:
    """Database stub whose drop_table fails for selected tables."""

    def __init__(self, failing):
        self.failing = set(failing)
        self.dropped: list[str] = []

    def create_table(self, name, columns, *, temporary=False,
                     primary_key=None):
        pass

    def drop_table(self, name):
        if name in self.failing:
            raise DatabaseError(f"cannot drop {name}")
        self.dropped.append(name)


class TestDropAllBestEffort:
    def manager(self, failing=("t1",)):
        mgr = TempTableManager(FlakyDropDB(failing))
        for name in ("t0", "t1", "t2", "t3"):
            mgr.adopt(name)
        return mgr

    def test_every_drop_attempted_first_error_reraised(self):
        mgr = self.manager(failing=("t1", "t2"))
        with pytest.raises(DatabaseError, match="cannot drop t1"):
            mgr.drop_all()
        # the failure did not abandon the later tables ...
        assert mgr.db.dropped == ["t0", "t3"]
        # ... and the list is cleared: a second teardown is a no-op
        # instead of re-raising on the same table
        assert mgr.tables == []
        mgr.drop_all()

    def test_drop_errors_counter(self):
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            with pytest.raises(DatabaseError):
                self.manager(failing=("t1", "t2")).drop_all()
        assert tracer.metrics.counter(
            "temptables.drop_errors").value == 2

    def test_exit_does_not_mask_query_error(self):
        mgr = self.manager()
        with pytest.raises(ValueError, match="the real error"):
            with mgr:
                raise ValueError("the real error")
        assert mgr.db.dropped == ["t0", "t2", "t3"]

    def test_exit_raises_on_clean_path(self):
        with pytest.raises(DatabaseError):
            with self.manager():
                pass


def simple_description():
    return InputDescription([
        NamedLocation("technique", "technique="),
        NamedLocation("fs", "fs="),
        TabularLocation([TabularColumn("S_chunk", 1),
                         TabularColumn("access", 2),
                         TabularColumn("bw", 3)],
                        start="DATA"),
    ])


def run_text(bw):
    return (f"technique=imp\nfs=ufs\nDATA\n"
            f" 32 write {bw}\n 64 read {bw * 2}\n")


class TestImportFilesErrorPaths:
    def write_inputs(self, tmp_path, n=3):
        paths = []
        for i in range(n):
            path = tmp_path / f"run{i}.sum"
            path.write_text(run_text(1.0 + i))
            paths.append(path)
        return paths

    def test_unreadable_path_skipped_under_discard(self, server,
                                                   tmp_path):
        exp = make_simple_experiment(server)
        paths = self.write_inputs(tmp_path)
        paths.insert(1, tmp_path / "missing.sum")  # does not exist
        importer = Importer(exp, simple_description(),
                            missing=MissingPolicy.DISCARD)
        report = importer.import_files(paths)
        assert report.n_imported == 3
        assert report.discarded == 1
        assert list(report.failed) == [str(tmp_path / "missing.sum")]
        assert "No such file" in report.failed[str(
            tmp_path / "missing.sum")]

    def test_injected_io_error_behaves_like_unreadable(self, server,
                                                       tmp_path):
        exp = make_simple_experiment(server)
        paths = self.write_inputs(tmp_path)
        plan = FaultPlan()
        plan.add("io", "import.read", file=str(paths[1]))
        importer = Importer(exp, simple_description(),
                            missing=MissingPolicy.DISCARD)
        with use_faults(plan):
            report = importer.import_files(paths)
        assert report.n_imported == 2
        assert str(paths[1]) in report.failed

    def test_oserror_aborts_and_rolls_back_without_discard(
            self, server, tmp_path):
        """A partially-stored batch must roll back: runs imported
        before the failing path do not survive the abort."""
        exp = make_simple_experiment(server)
        paths = self.write_inputs(tmp_path)
        paths.append(tmp_path / "missing.sum")
        importer = Importer(exp, simple_description())
        with pytest.raises(OSError):
            importer.import_files(paths)
        assert exp.run_indices() == []

    def test_input_error_still_aborts_under_reject(self, server,
                                                   tmp_path):
        exp = make_simple_experiment(server)
        paths = self.write_inputs(tmp_path, n=1)
        empty = tmp_path / "empty.sum"
        empty.write_text("nothing here\n")
        importer = Importer(exp, simple_description(),
                            missing=MissingPolicy.REJECT)
        with pytest.raises(InputError):
            importer.import_files([empty] + paths)
        assert exp.run_indices() == []


class TestLockRecovery:
    def test_injected_locks_recovered_in_cache_store(self, server):
        """Transient locks during a cache store are retried away: the
        query completes and the faults really fired."""
        exp = fill_simple(make_simple_experiment(server))
        plan = FaultPlan()
        plan.add("lock", "cache.put", times=2)
        tracer = Tracer(InMemorySink())
        query = Query([
            Source("s", parameters=[ParameterSpec("S_chunk")],
                   results=["bw"]),
            Operator("a", op="avg", inputs=["s"]),
            Output("o", inputs=["a"], format="csv"),
        ], name="lq")
        with use_faults(plan), use_tracer(tracer):
            query.execute(exp, cache=exp.query_cache())
        assert plan.fired("lock") == 2
        assert tracer.metrics.counter("retry.retries").value >= 2
        assert tracer.metrics.counter("retry.recovered").value >= 1
        assert tracer.metrics.counter("faults.injected.lock").value == 2

    def test_injected_locks_recovered_in_batch_commit(self, server):
        exp = make_simple_experiment(server)
        plan = FaultPlan()
        plan.add("lock", "db.commit", times=1)
        with use_faults(plan):
            with exp.store.batch():
                fill_simple(exp, reps=1)
        assert plan.fired("lock") == 1
        assert len(exp.run_indices()) == 2

    def test_busy_timeout_pragma_applied(self):
        db = SQLiteDatabase(busy_timeout_ms=1234)
        assert db.busy_timeout_ms == 1234
        assert db.fetchone("PRAGMA busy_timeout") == (1234,)
        db.close()


class TestNoLeakAfterFailingQuery:
    def test_failing_query_leaves_no_temp_tables(self, server):
        """The hard guarantee: no leased pbtmp_/pbq_ table, no rows in
        a released one and zero orphan pbc_ tables after a query dies
        mid-flight."""
        exp = fill_simple(make_simple_experiment(server))
        plan = FaultPlan()
        # fail the element's own SQL, not the teardown drops
        plan.add("io", "db.run", times=1, after=2)
        query = Query([
            Source("s", parameters=[ParameterSpec("S_chunk")],
                   results=["bw"]),
            Operator("a", op="avg", inputs=["s"]),
            Output("o", inputs=["a"], format="csv"),
        ], name="leaky")
        with use_faults(plan):
            with pytest.raises(OSError):
                query.execute(exp)
        db = exp.store.db
        leftovers = [t for t in db.list_tables()
                     if t.startswith(("pbtmp_", "pbq_", "pbc_"))
                     and not (db.temp_pool.is_idle(t)
                              and db.count_rows(t) == 0)]
        assert leftovers == []
