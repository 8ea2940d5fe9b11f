"""Service-layer battery: session pooling, admission control,
backpressure and shard lifecycle (``-m service``)."""

import sqlite3
import threading

import pytest

from repro.core import (DataType, LockoutError, Parameter, Result,
                        RunData, ServiceError, ServiceUnavailable,
                        UserClass)
from repro.core.experiment import Experiment
from repro.core.variables import Occurrence
from repro.db import (MemoryDatabaseServer, MemoryServer, SQLiteServer,
                      memory_server_for)
from repro.faults import FaultPlan, use_faults
from repro.obs import InMemorySink, Tracer, use_tracer
from repro.query import Operator, Output, Query, Source
from repro.service import ExperimentService, ServiceConfig

pytestmark = pytest.mark.service


def variables():
    return [
        Parameter("who", datatype=DataType.STRING),
        Result("val", datatype=DataType.FLOAT,
               occurrence=Occurrence.MULTIPLE),
    ]


def run(who="x", val=1.0):
    return RunData(once={"who": who}, datasets=[{"val": val}])


@pytest.fixture
def service():
    server = MemoryServer()
    svc = ExperimentService(server=server)
    svc.create_experiment("exp", variables(), user="alice")
    exp = Experiment.open(server, "exp", user="alice")
    exp.grant("alice", UserClass.ADMIN)
    exp.grant("ingest", UserClass.INPUT)
    exp.grant("reader", UserClass.QUERY)
    if server.independent_connections:
        exp.close()
    yield svc
    svc.close()


class TestSessionLifecycle:
    def test_store_and_read_through_session(self, service):
        with service.session("ingest") as session:
            idx = session.store_run("exp", run(val=7.5))
        with service.session("reader") as session:
            assert session.run_indices("exp") == [idx]
            assert session.load_run("exp", idx).datasets[0]["val"] == 7.5
            assert session.n_runs("exp") == 1

    def test_closed_session_refuses_ops(self, service):
        session = service.session("reader")
        session.close()
        with pytest.raises(ServiceError):
            session.n_runs("exp")
        session.close()  # idempotent

    def test_closed_service_refuses_sessions(self, service):
        service.close()
        with pytest.raises(ServiceUnavailable):
            service.session("reader")

    def test_session_counters_and_gauges(self, service):
        with service.session("reader") as session:
            session.n_runs("exp")
            assert service.stats()["gauges"]["service.sessions_open"] == 1
        stats = service.stats()
        assert stats["counters"]["service.sessions_total"] == 1
        assert stats["counters"]["service.ops.query"] == 1
        assert stats["gauges"]["service.sessions_open"] == 0

    def test_describe_and_records(self, service):
        with service.session("ingest") as session:
            session.store_run("exp", run())
        with service.session("reader") as session:
            desc = session.describe("exp")
            assert desc["name"] == "exp"
            records = session.run_records("exp")
            assert [r.index for r in records] == [1]


class TestAdmissionBackpressure:
    def test_saturation_times_out_as_service_unavailable(self):
        svc = ExperimentService(server=MemoryServer(),
                                config=ServiceConfig(
                                    max_sessions=2,
                                    admission_timeout=0.05))
        s1, s2 = svc.session("a"), svc.session("b")
        with pytest.raises(ServiceUnavailable):
            svc.session("c")
        assert svc.stats()["counters"]["service.rejections"] == 1
        s1.close()
        svc.session("d").close()  # a freed slot admits again
        s2.close()
        svc.close()

    def test_queued_client_admitted_when_slot_frees(self):
        svc = ExperimentService(server=MemoryServer(),
                                config=ServiceConfig(
                                    max_sessions=1,
                                    admission_timeout=5.0))
        first = svc.session("a")
        admitted = threading.Event()

        def waiter():
            svc.session("b").close()
            admitted.set()

        t = threading.Thread(target=waiter)
        t.start()
        try:
            assert not admitted.wait(0.05)  # genuinely queued
            first.close()
            assert admitted.wait(5.0)
        finally:
            t.join()
            svc.close()
        stats = svc.stats()
        assert stats["counters"].get("service.rejections", 0) == 0
        assert stats["counters"]["service.sessions_total"] == 2

    def test_pool_width_respects_backend_connection_model(self):
        for server, width in ((MemoryServer(), 1),
                              (MemoryDatabaseServer(), 1)):
            svc = ExperimentService(server=server)
            svc.create_experiment("exp", variables(), user="a")
            with svc.session("a") as session:
                session.n_runs("exp")
            assert svc.stats()["shards"]["exp"]["width"] == width
            svc.close()


class TestShardLifecycle:
    def test_shards_open_lazily_per_experiment(self, service):
        service.create_experiment("other", variables(), user="alice")
        with service.session("alice") as session:
            session.n_runs("exp")
            session.n_runs("other")
        shards = service.stats()["shards"]
        assert set(shards) == {"exp", "other"}

    def test_retire_shard_keeps_data(self, service):
        with service.session("ingest") as session:
            session.store_run("exp", run())
        service.retire_shard("exp")
        assert "exp" not in service.stats()["shards"]
        with service.session("reader") as session:
            assert session.n_runs("exp") == 1  # re-routes transparently

    def test_delete_experiment_requires_admin(self, service):
        from repro.core import AccessError
        with service.session("ingest") as session:
            with pytest.raises(AccessError):
                session.delete_experiment("exp")
        with service.session("alice") as session:
            session.delete_experiment("exp")
        assert "exp" not in service.experiments()

    def test_close_evicts_memory_registry(self, tmp_path):
        svc = ExperimentService(str(tmp_path), backend="memory")
        svc.create_experiment("exp", variables(), user="a")
        svc.close()
        assert memory_server_for(tmp_path).list_databases() == []

    def test_lockout_guard_reaches_service_boundary(self, service):
        with service.session("alice") as session:
            with pytest.raises(LockoutError):
                session.revoke("exp", "alice")
            # the guard kept the table intact: alice still admin
            session.grant("exp", "bob", UserClass.QUERY)


class TestLockContention:
    def test_store_retried_until_the_deadline(self, service):
        """Pooled handles of one shard contend for SQLite's write lock,
        and a batch that loses the upgrade fails at once: a store that
        keeps losing is retried until the deadline, not abandoned
        after a fixed dozen attempts."""
        plan = FaultPlan()
        plan.add("lock", "db.run", times=20)
        with use_faults(plan):
            with service.session("ingest") as session:
                idx = session.store_run("exp", run(val=3.0))
        assert plan.fired("lock") == 20
        with service.session("reader") as session:
            assert session.load_run("exp", idx).datasets[0]["val"] == 3.0


class TestQueryTransactions:
    @pytest.mark.parametrize("pushdown", [False, True],
                             ids=["unfused", "fused"])
    def test_query_leaves_the_shard_writable(self, tmp_path, pushdown):
        """The temp-table writes of a query open an implicit
        transaction; if the pooled handle kept it after the op, its
        read lock would make every other writer's commit on the shard
        wait out the busy timeout and fail with 'database is locked'."""
        svc = ExperimentService(server=SQLiteServer(tmp_path))
        svc.create_experiment("exp", variables(), user="a")
        query = Query([Source("s", results=["val"]),
                       Operator("m", "avg", ["s"]),
                       Output("o", ["m"], format="csv")], name="q")
        with svc.session("a") as session:
            session.store_run("exp", run(val=2.0))
            session.execute("exp", query, pushdown=pushdown)
            other = sqlite3.connect(str(tmp_path / "exp.db"),
                                    isolation_level=None)
            other.execute("PRAGMA busy_timeout=0")
            other.execute("BEGIN IMMEDIATE")
            other.execute("CREATE TABLE writer_probe (a INTEGER)")
            other.execute("COMMIT")
            other.close()
        svc.close()


class TestObservability:
    def test_session_spans_and_metrics_recorded(self):
        sink = InMemorySink()
        tracer = Tracer(sink)
        with use_tracer(tracer):
            svc = ExperimentService(server=MemoryServer())
            svc.create_experiment("exp", variables(), user="a")
            with svc.session("a") as session:
                session.store_run("exp", run())
                session.n_runs("exp")
            svc.close()
        names = [s.name for s in sink.spans]
        assert "service.session" in names
        assert names.count("service.op") == 2
        session_span = next(s for s in sink.spans
                            if s.name == "service.session")
        assert session_span.attributes["user"] == "a"
        metrics = tracer.metrics
        assert metrics.counter("service.sessions_total").value == 1
        assert metrics.counter("service.ops.input").value == 1
        assert metrics.counter("service.ops.query").value == 1
