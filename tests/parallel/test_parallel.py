"""Unit and integration tests for the parallel query subsystem
(Section 4.3, Fig. 3)."""

import pytest

from repro.core import QueryError
from repro.obs import QueryProfile
from repro.parallel import (ETHERNET_1G, HIGH_SPEED, INFINITE,
                            InterconnectModel, LevelScheduler,
                            LocalityScheduler, ParallelQueryExecutor,
                            RoundRobinScheduler, SimulatedCluster,
                            copy_vector)
from repro.query import (Combiner, Operator, Output, ParameterSpec,
                         Query, QueryGraph, Source)


def fig2_query():
    """A two-branch query in the shape of Fig. 2."""
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


class TestInterconnectModel:
    def test_transfer_time_scales_with_volume(self):
        m = InterconnectModel(latency_s=1e-5,
                              bandwidth_bytes_per_s=1e8)
        small = m.transfer_seconds(10, 2)
        large = m.transfer_seconds(10000, 2)
        assert large > small > 0

    def test_latency_floor(self):
        m = InterconnectModel(latency_s=0.5,
                              bandwidth_bytes_per_s=1e9)
        assert m.transfer_seconds(0, 0) == 0.5

    def test_presets_ordering(self):
        rows, cols = 10000, 5
        assert (INFINITE.transfer_seconds(rows, cols)
                < HIGH_SPEED.transfer_seconds(rows, cols)
                < ETHERNET_1G.transfer_seconds(rows, cols))

    def test_charge_accounts(self, filled_experiment):
        """A shipped vector is charged its modelled transfer time."""
        cluster = SimulatedCluster(2, interconnect=ETHERNET_1G)
        result = fig2_query().execute(filled_experiment,
                                      keep_temp_tables=True)
        vector = result.vectors["ao"]
        copy_vector(vector, cluster.node(1), cluster)
        assert cluster.transfer_seconds == ETHERNET_1G.transfer_seconds(
            vector.n_rows, len(vector.columns))
        cluster.shutdown()


class TestSimulatedCluster:
    def test_nodes_have_independent_databases(self):
        cluster = SimulatedCluster(3)
        dbs = {id(n.db) for n in cluster.nodes}
        assert len(dbs) == 3
        cluster.shutdown()

    def test_frontend_is_node_zero(self):
        cluster = SimulatedCluster(2)
        assert cluster.frontend is cluster.nodes[0]
        cluster.shutdown()

    def test_needs_one_node(self):
        with pytest.raises(ValueError):
            SimulatedCluster(0)

    def test_copy_vector_moves_rows(self, filled_experiment):
        cluster = SimulatedCluster(2)
        q = fig2_query()
        result = q.execute(filled_experiment, keep_temp_tables=True)
        vector = result.vectors["ao"]
        copied = copy_vector(vector, cluster.node(1), cluster)
        assert copied.db is cluster.node(1).db
        assert sorted(copied.rows()) == sorted(vector.rows())
        assert cluster.transfers == 1
        assert cluster.transfer_seconds > 0
        cluster.shutdown()

    def test_copy_vector_same_node_is_noop(self, filled_experiment):
        cluster = SimulatedCluster(2)
        q = fig2_query()
        result = q.execute(filled_experiment, keep_temp_tables=True)
        vector = result.vectors["ao"]
        moved = copy_vector(vector, cluster.node(1), cluster)
        again = copy_vector(moved, cluster.node(1), cluster)
        assert again is moved
        assert cluster.transfers == 1
        cluster.shutdown()


class TestSchedulers:
    def graph(self):
        return fig2_query().graph

    def test_round_robin_cycles(self):
        placement = RoundRobinScheduler().place(self.graph(), 2)
        assert set(placement.values()) == {0, 1}

    def test_level_spreads_levels(self):
        placement = LevelScheduler().place(self.graph(), 2)
        # the two sources are on level 0 and must be on distinct nodes
        assert placement["so"] != placement["sn"]
        assert placement["ao"] != placement["an"]

    def test_locality_prefers_input_node(self):
        placement = LocalityScheduler().place(self.graph(), 4)
        # each avg should sit on its source's node
        assert placement["ao"] == placement["so"]
        assert placement["an"] == placement["sn"]

    def test_single_node_degenerates(self):
        for scheduler in (RoundRobinScheduler(), LevelScheduler(),
                          LocalityScheduler()):
            placement = scheduler.place(self.graph(), 1)
            assert set(placement.values()) == {0}

    def test_all_elements_placed(self):
        g = self.graph()
        for scheduler in (RoundRobinScheduler(), LevelScheduler(),
                          LocalityScheduler()):
            placement = scheduler.place(g, 3)
            assert set(placement) == set(g.elements)


class TestParallelExecutor:
    @pytest.mark.parametrize("n_nodes", [1, 2, 4])
    def test_matches_serial_result(self, filled_experiment, n_nodes):
        serial = fig2_query().execute(filled_experiment)
        cluster = SimulatedCluster(n_nodes)
        parallel, stats = ParallelQueryExecutor(cluster).execute(
            fig2_query(), filled_experiment)
        assert [a.content for a in serial.artifacts] == \
            [a.content for a in parallel.artifacts]
        assert stats.n_nodes == n_nodes
        cluster.shutdown()

    def test_transfers_counted(self, filled_experiment):
        cluster = SimulatedCluster(2)
        _, stats = ParallelQueryExecutor(
            cluster, LevelScheduler()).execute(
            fig2_query(), filled_experiment)
        # the cross-branch 'rel' operator must pull at least one vector
        assert stats.transfers >= 1
        assert stats.transfer_seconds > 0
        cluster.shutdown()

    def test_locality_reduces_transfers(self, filled_experiment):
        counts = {}
        for scheduler in (RoundRobinScheduler(), LocalityScheduler()):
            cluster = SimulatedCluster(4)
            _, stats = ParallelQueryExecutor(
                cluster, scheduler).execute(
                fig2_query(), filled_experiment)
            counts[scheduler.name] = stats.transfers
            cluster.shutdown()
        assert counts["locality"] <= counts["round-robin"]

    def test_profile_collects_all_elements(self, filled_experiment):
        cluster = SimulatedCluster(2)
        result, _ = ParallelQueryExecutor(cluster).execute(
            fig2_query(), filled_experiment, profile=True)
        assert len(result.profile.timings) == len(
            fig2_query().elements)
        cluster.shutdown()

    def test_failure_propagates(self, filled_experiment):
        bad = Query([
            Source("s", parameters=[ParameterSpec("S_chunk")],
                   results=["bw"]),
            Operator("e", "eval", ["s"], expression="ghost * 1"),
            Output("o", ["e"]),
        ])
        cluster = SimulatedCluster(2)
        with pytest.raises(QueryError, match="failed"):
            ParallelQueryExecutor(cluster).execute(
                bad, filled_experiment)
        cluster.shutdown()

    def test_stats_efficiency_bounded(self, filled_experiment):
        cluster = SimulatedCluster(2)
        _, stats = ParallelQueryExecutor(cluster).execute(
            fig2_query(), filled_experiment)
        assert 0 <= stats.parallel_efficiency <= 1.5  # timing jitter
        cluster.shutdown()


class TestQueryProfile:
    def test_source_fraction(self):
        prof = QueryProfile()
        prof.record("s1", "source", 0.1, 10)
        prof.record("op", "operator", 0.9, 5)
        assert prof.source_fraction() == pytest.approx(0.1)

    def test_empty_profile(self):
        assert QueryProfile().source_fraction() == 0.0

    def test_seconds_by_kind(self):
        prof = QueryProfile()
        prof.record("a", "source", 0.1, 1)
        prof.record("b", "source", 0.2, 1)
        prof.record("c", "output", 0.3, 0)
        by_kind = prof.seconds_by_kind()
        assert by_kind["source"] == pytest.approx(0.3)
        assert by_kind["output"] == pytest.approx(0.3)

    def test_report_renders(self):
        prof = QueryProfile(query_name="q")
        prof.record("a", "source", 0.1, 1)
        report = prof.report()
        assert "q" in report and "source fraction" in report
