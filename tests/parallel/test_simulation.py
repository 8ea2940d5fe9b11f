"""Unit tests for the discrete-event schedule simulator."""

import pytest

from repro.core import QueryError
from repro.obs import QueryProfile
from repro.parallel import (HIGH_SPEED, INFINITE, LevelScheduler,
                            simulate_schedule, speedup_curve)
from repro.parallel.network import InterconnectModel
from repro.query import (Operator, Output, ParameterSpec, QueryGraph,
                         Source)


def diamond_graph(width=4):
    """`width` independent source->op chains joined by a final max."""
    elements = []
    tops = []
    for i in range(width):
        elements.append(Source(f"s{i}",
                               parameters=[ParameterSpec("x")],
                               results=["bw"]))
        elements.append(Operator(f"a{i}", "avg", [f"s{i}"]))
        tops.append(f"a{i}")
    elements.append(Operator("join", "max", tops))
    elements.append(Output("o", ["join"]))
    return QueryGraph(elements)


def profile_for(graph, seconds=0.1, rows=1000, cols=4):
    prof = QueryProfile()
    for name, element in graph.elements.items():
        prof.record(name, element.kind,
                    0.0 if element.kind == "output" else seconds,
                    rows, cols)
    return prof


class TestSimulateSchedule:
    def test_single_node_equals_serial(self):
        g = diamond_graph()
        prof = profile_for(g)
        sim = simulate_schedule(g, prof,
                                LevelScheduler().place(g, 1), 1)
        assert sim.makespan_seconds == pytest.approx(
            sim.serial_seconds)
        assert sim.speedup == pytest.approx(1.0)
        assert sim.transfers == 0

    def test_width_nodes_give_near_width_speedup(self):
        g = diamond_graph(width=4)
        prof = profile_for(g)
        sim = simulate_schedule(g, prof,
                                LevelScheduler().place(g, 4), 4,
                                INFINITE)
        # 9 timed elements of 0.1s serial = 0.9s; parallel critical
        # path: source 0.1 + avg 0.1 + join 0.1 = 0.3s
        assert sim.makespan_seconds == pytest.approx(0.3)
        assert sim.speedup == pytest.approx(3.0)

    def test_speedup_saturates_at_dag_width(self):
        g = diamond_graph(width=4)
        prof = profile_for(g)
        curve = speedup_curve(g, prof, [4, 8, 16],
                              interconnect=INFINITE)
        assert curve[8].speedup == pytest.approx(curve[4].speedup)
        assert curve[16].speedup == pytest.approx(curve[4].speedup)

    def test_transfers_charged(self):
        g = diamond_graph(width=2)
        prof = profile_for(g, rows=10_000, cols=8)
        slow = InterconnectModel(latency_s=0.05,
                                 bandwidth_bytes_per_s=1e6)
        fast = simulate_schedule(g, prof,
                                 LevelScheduler().place(g, 2), 2,
                                 INFINITE)
        costly = simulate_schedule(g, prof,
                                   LevelScheduler().place(g, 2), 2,
                                   slow)
        assert costly.makespan_seconds > fast.makespan_seconds
        assert costly.transfer_seconds > 0
        assert costly.transfers >= 1

    def test_same_node_input_is_free(self):
        g = diamond_graph(width=1)
        prof = profile_for(g)
        placement = {name: 0 for name in g.elements}
        sim = simulate_schedule(g, prof, placement, 1, HIGH_SPEED)
        assert sim.transfers == 0

    def test_timeline_respects_dependencies(self):
        g = diamond_graph(width=2)
        prof = profile_for(g)
        sim = simulate_schedule(g, prof,
                                LevelScheduler().place(g, 2), 2,
                                INFINITE)
        for name, element in g.elements.items():
            start, end, _node = sim.timeline[name]
            for input_name in element.inputs:
                assert sim.timeline[input_name][1] <= start + 1e-12

    def test_node_never_runs_two_elements_at_once(self):
        g = diamond_graph(width=4)
        prof = profile_for(g)
        sim = simulate_schedule(g, prof,
                                LevelScheduler().place(g, 2), 2,
                                INFINITE)
        by_node = {}
        for name, (start, end, node) in sim.timeline.items():
            by_node.setdefault(node, []).append((start, end))
        for intervals in by_node.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2 + 1e-12

    def test_missing_timing_rejected(self):
        g = diamond_graph(width=1)
        prof = QueryProfile()  # empty
        with pytest.raises(QueryError, match="lacks timings"):
            simulate_schedule(g, prof,
                              LevelScheduler().place(g, 1), 1)

    def test_efficiency_definition(self):
        g = diamond_graph(width=4)
        prof = profile_for(g)
        sim = simulate_schedule(g, prof,
                                LevelScheduler().place(g, 4), 4,
                                INFINITE)
        assert sim.efficiency == pytest.approx(sim.speedup / 4)

    def test_real_profile_drives_simulation(self, filled_experiment):
        """End-to-end: profile a real serial run, then simulate."""
        from repro.query import Query
        q = Query([
            Source("s1", parameters=[
                ParameterSpec("technique", "old", show=False),
                ParameterSpec("S_chunk"), ParameterSpec("access")],
                results=["bw"]),
            Source("s2", parameters=[
                ParameterSpec("technique", "new", show=False),
                ParameterSpec("S_chunk"), ParameterSpec("access")],
                results=["bw"]),
            Operator("a1", "avg", ["s1"]),
            Operator("a2", "avg", ["s2"]),
            Operator("d", "diff", ["a2", "a1"]),
            Output("o", ["d"]),
        ])
        result = q.execute(filled_experiment, profile=True)
        curve = speedup_curve(q.graph, result.profile, [1, 2, 4])
        assert curve[2].speedup >= 1.0
        assert curve[1].transfers == 0
