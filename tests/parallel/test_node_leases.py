"""Each parallel query leases its node temp tables with managers of its
own and releases them when it ends, also when it fails: a long-lived
cluster keeps one set of node tables, and a re-run query leases the
tables the last run released."""

from __future__ import annotations

import pytest

from repro.core import QueryError
from repro.faults import FaultPlan, use_faults
from repro.obs.metrics import REGISTRY
from repro.parallel import ParallelQueryExecutor, SimulatedCluster
from repro.workloads.beffio_assets import fig8_query_xml
from repro.xmlio import parse_query_xml


@pytest.fixture
def cluster():
    cluster = SimulatedCluster(2)
    yield cluster
    cluster.shutdown()


def node_tables(cluster) -> tuple[list[int], list[str]]:
    """How many tables each node holds, and those still leased."""
    names = [node.db.list_tables() for node in cluster.nodes]
    leased = [name for node, tables in zip(cluster.nodes, names)
              for name in tables if not node.db.temp_pool.is_idle(name)]
    return [len(tables) for tables in names], leased


def reused() -> int:
    return REGISTRY.values().get("temptables.reused", 0)


def test_reruns_keep_one_set_of_node_tables(beffio_experiment, cluster):
    executor = ParallelQueryExecutor(cluster)
    query = parse_query_xml(fig8_query_xml())
    sizes, leases_reused, artifacts = [], [], []
    for _ in range(3):
        before = reused()
        result, _stats = executor.execute(query, beffio_experiment)
        leases_reused.append(reused() - before)
        counts, leased = node_tables(cluster)
        assert leased == []
        sizes.append(counts)
        artifacts.append([(a.name, a.content) for a in result.artifacts])
    assert all(sizes[0]) and sizes[0] == sizes[1] == sizes[2]
    # the first run creates every node table, each later run leases
    # every one of them again
    assert leases_reused == [0, sum(sizes[0]), sum(sizes[0])]
    assert artifacts[0] == artifacts[1] == artifacts[2]


def test_kept_tables_stay_readable_and_leased(beffio_experiment, cluster):
    executor = ParallelQueryExecutor(cluster)
    query = parse_query_xml(fig8_query_xml())
    result, _stats = executor.execute(query, beffio_experiment,
                                      keep_temp_tables=True)
    assert result.vectors["reldiff"].rows()
    counts, leased = node_tables(cluster)
    assert len(leased) == sum(counts) > 0


@pytest.mark.faults
def test_failed_run_releases_its_node_tables(beffio_experiment, cluster):
    executor = ParallelQueryExecutor(cluster)
    query = parse_query_xml(fig8_query_xml())
    executor.execute(query, beffio_experiment)
    sizes, _leased = node_tables(cluster)
    plan = FaultPlan()
    plan.add("io", "parallel.worker", element="reldiff")
    with use_faults(plan), pytest.raises(QueryError):
        executor.execute(query, beffio_experiment)
    assert plan.fired("io") == 1
    assert node_tables(cluster) == (sizes, [])
    before = reused()
    executor.execute(query, beffio_experiment)
    assert reused() - before == sum(sizes)
    assert node_tables(cluster) == (sizes, [])
