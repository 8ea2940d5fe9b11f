"""Graceful degradation under injected node death: the dead node's
remaining elements move to the survivors and the result stays identical
to a serial run — for every scheduler."""

from __future__ import annotations

import pytest

from repro.core import QueryError
from repro.faults import FaultPlan, use_faults
from repro.obs import InMemorySink, Tracer, use_tracer
from repro.parallel import (LevelScheduler, LocalityScheduler,
                            ParallelQueryExecutor, RoundRobinScheduler,
                            SimulatedCluster)
from repro.query import Operator, Output, ParameterSpec, Query, Source

pytestmark = pytest.mark.faults

SCHEDULERS = [RoundRobinScheduler, LevelScheduler, LocalityScheduler]


def fig2_query():
    def branch(tag, technique):
        return [
            Source(f"s{tag}", parameters=[
                ParameterSpec("technique", technique, show=False),
                ParameterSpec("S_chunk"), ParameterSpec("access")],
                results=["bw"]),
            Operator(f"a{tag}", "avg", [f"s{tag}"]),
        ]
    return Query(
        branch("o", "old") + branch("n", "new") + [
            Operator("rel", "above", ["an", "ao"]),
            Output("table", ["rel"], format="ascii"),
        ], name="fig2")


def serial_rows(experiment):
    result = fig2_query().execute(experiment, keep_temp_tables=True)
    return {name: sorted(v.rows())
            for name, v in result.vectors.items()}


@pytest.mark.parametrize("scheduler_cls", SCHEDULERS,
                         ids=lambda c: c.__name__)
class TestNodeDeathDegradation:
    def test_result_identical_to_serial(self, filled_experiment,
                                        scheduler_cls):
        expected = serial_rows(filled_experiment)
        cluster = SimulatedCluster(3)
        try:
            executor = ParallelQueryExecutor(cluster, scheduler_cls())
            plan = FaultPlan()
            plan.add("node_death", "parallel.worker", node=1, times=1)
            with use_faults(plan):
                result, stats = executor.execute(
                    fig2_query(), filled_experiment, keep_temp_tables=True)
            assert plan.fired("node_death") == 1
            assert stats.node_deaths == 1
            assert stats.dead_nodes == [1]
            assert stats.replaced_elements >= 1
            # nothing may still be placed on the buried node
            assert 1 not in set(stats.placement.values())
            for name, rows in expected.items():
                assert sorted(result.vectors[name].rows()) == rows, name
        finally:
            cluster.shutdown()

    def test_death_of_every_node_fails_the_query(self, filled_experiment,
                                                 scheduler_cls):
        cluster = SimulatedCluster(2)
        try:
            executor = ParallelQueryExecutor(cluster, scheduler_cls())
            plan = FaultPlan()
            plan.add("node_death", "parallel.worker")
            with use_faults(plan):
                with pytest.raises(QueryError,
                                   match="every cluster node died"):
                    executor.execute(fig2_query(), filled_experiment)
        finally:
            cluster.shutdown()


class TestNodeDeathAccounting:
    def test_metrics_and_stats(self, filled_experiment):
        cluster = SimulatedCluster(3)
        tracer = Tracer(InMemorySink())
        try:
            executor = ParallelQueryExecutor(cluster)
            plan = FaultPlan()
            plan.add("node_death", "parallel.worker", node=1, times=1)
            with use_faults(plan), use_tracer(tracer):
                result, stats = executor.execute(
                    fig2_query(), filled_experiment, keep_temp_tables=True)
            assert stats.node_deaths == 1
            assert (tracer.metrics.counter("parallel.node_deaths").value
                    == 1)
            assert (tracer.metrics.counter(
                "parallel.replaced_elements").value
                == stats.replaced_elements >= 1)
            assert result.vectors["rel"].rows()
        finally:
            cluster.shutdown()

    def test_disabled_plan_costs_nothing(self, filled_experiment):
        # no plan installed: the hook is one attribute read; the run
        # behaves exactly as before the subsystem existed
        cluster = SimulatedCluster(2)
        try:
            result, stats = ParallelQueryExecutor(cluster).execute(
                fig2_query(), filled_experiment, keep_temp_tables=True)
            assert stats.node_deaths == 0
            assert stats.dead_nodes == []
            assert sorted(result.vectors["rel"].rows()) == sorted(
                serial_rows(filled_experiment)["rel"])
        finally:
            cluster.shutdown()
