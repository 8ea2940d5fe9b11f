"""Stress battery: hundreds of concurrent clients over several shards,
with and without injected faults (``-m service``)."""

import pytest

from repro.db import MemoryDatabaseServer, MemoryServer
from repro.service import (ExperimentService, ServiceConfig,
                           StressOptions, run_stress)

pytestmark = pytest.mark.service


def report_or_fail(report):
    assert report.ok, f"stress problems: {report.problems[:5]}"
    return report


class TestStressClean:
    @pytest.mark.parametrize("server_cls",
                             [MemoryServer, MemoryDatabaseServer],
                             ids=["sqlite-mem", "memory"])
    def test_small_burst_both_backends(self, server_cls):
        report = report_or_fail(run_stress(
            server=server_cls(),
            options=StressOptions(clients=40, shards=2,
                                  ops_per_client=2)))
        assert report.verified_runs == report.stored_runs > 0
        assert report.denied_ops > 0       # query users were refused
        assert report.failed_ops == 0

    def test_full_scale_file_backend(self, tmp_path):
        """The acceptance-criteria scenario: >=200 clients, 4 shards."""
        report = report_or_fail(run_stress(
            str(tmp_path),
            options=StressOptions(clients=200, shards=4,
                                  ops_per_client=3)))
        assert report.ops_completed == report.ops_attempted == 600
        assert report.verified_runs == report.stored_runs == 300


class TestStressUnderFaults:
    def test_lock_and_io_faults_file_backend(self, tmp_path):
        """Injected transient locks + commit io faults: a client either
        sees its run commit (then it is present and intact) or sees an
        error (then nothing is stored) — never phantoms."""
        report = report_or_fail(run_stress(
            str(tmp_path),
            options=StressOptions(
                clients=200, shards=4, ops_per_client=3,
                faults="seed=11;lock@db.run:p=0.02;io@db.commit:p=0.01")))
        assert report.verified_runs == report.stored_runs

    def test_lock_faults_memory_sqlite(self):
        report = report_or_fail(run_stress(
            server=MemoryServer(),
            options=StressOptions(
                clients=120, shards=4, ops_per_client=2,
                faults="seed=7;lock@db.run:p=0.02")))
        assert report.verified_runs == report.stored_runs

    def test_saturation_rejects_gracefully(self, tmp_path):
        """An undersized service sheds load as ServiceUnavailable: the
        rejected clients count as rejections, everyone else's ops keep
        their invariants.  The injected 20 ms statement latency makes
        every admitted session outlive the 10 ms admission timeout, so
        rejections do not depend on how the threads happen to overlap."""
        report = run_stress(
            str(tmp_path),
            options=StressOptions(
                clients=150, shards=4, ops_per_client=2,
                config=ServiceConfig(max_sessions=4,
                                     admission_timeout=0.01),
                faults="seed=1;latency@db.run:ms=20"))
        assert report.ok, f"problems: {report.problems[:5]}"
        assert report.rejections > 0
        assert (report.service_stats["counters"]["service.rejections"]
                == report.rejections)
        # verified payloads still exactly match the committed set
        assert report.verified_runs == report.stored_runs


class TestStressRegression:
    def test_batch_failure_leaves_connection_clean(self, tmp_path):
        """Regression for the phantom-run bug: a store_run attempt that
        fails mid-batch must roll its transaction back, or the *next*
        commit on the pooled connection silently persists the orphan.

        On pre-fix code this exact scenario stored runs nobody
        committed (phantoms) and collided on rundata table names."""
        from repro.core import DataType, DatabaseError, RunData, UserClass
        from repro.core.experiment import Experiment
        from repro.core.variables import Occurrence, Parameter, Result
        from repro.db import SQLiteServer
        from repro.faults import FaultPlan, use_faults

        server = SQLiteServer(tmp_path)
        exp = Experiment.create(server, "t", [
            Parameter("who", datatype=DataType.STRING),
            Result("val", datatype=DataType.FLOAT,
                   occurrence=Occurrence.MULTIPLE)], user="admin")
        exp.grant("admin", UserClass.ADMIN)
        exp.grant("w", UserClass.INPUT)
        exp.close()

        svc = ExperimentService(str(tmp_path), server=server)
        committed = []
        # p=0.15 over 60 ops reliably exhausts the retry budget at
        # least once, which is exactly the leak window
        with use_faults(FaultPlan.parse("seed=1;lock@db.run:p=0.15")):
            for i in range(60):
                try:
                    with svc.session("w") as session:
                        committed.append(session.store_run(
                            "t", RunData(once={"who": f"c{i}"},
                                         datasets=[{"val": float(i)}])))
                except DatabaseError:
                    pass  # surfaced to the acting client only
        svc.close()

        exp = Experiment.open(server, "t", user="admin")
        try:
            indices = sorted(exp.store.run_indices())
        finally:
            exp.close()
        assert indices == sorted(committed)  # no lost, no phantom runs
