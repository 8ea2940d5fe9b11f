"""Property-based tests for schedulers and the schedule simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import QueryProfile
from repro.parallel import (INFINITE, LevelScheduler, LocalityScheduler,
                            RoundRobinScheduler, simulate_schedule)
from repro.query import (Operator, Output, ParameterSpec, QueryGraph,
                         Source)

SCHEDULERS = (RoundRobinScheduler(), LevelScheduler(),
              LocalityScheduler())


def random_graph(widths: list[int]) -> QueryGraph:
    """A layered random DAG: `widths[i]` elements on layer i, each
    consuming 1-2 elements of the previous layer."""
    elements = []
    previous: list[str] = []
    for layer, width in enumerate(widths):
        current = []
        for i in range(width):
            name = f"e{layer}_{i}"
            if layer == 0:
                elements.append(Source(
                    name, parameters=[ParameterSpec("x")],
                    results=["bw"]))
            else:
                inputs = [previous[i % len(previous)]]
                if width > 1 and len(previous) > 1:
                    inputs.append(previous[(i + 1) % len(previous)])
                    op = "max"
                    elements.append(Operator(name, op, inputs))
                else:
                    elements.append(Operator(name, "avg",
                                             [inputs[0]]))
            current.append(name)
        previous = current
    elements.append(Output("out", [previous[0]]))
    return QueryGraph(elements)


graph_shapes = st.lists(st.integers(min_value=1, max_value=4),
                        min_size=1, max_size=4)
node_counts = st.integers(min_value=1, max_value=8)
durations = st.floats(min_value=0.001, max_value=1.0,
                      allow_nan=False)


def profile_for(graph, duration_map):
    prof = QueryProfile()
    for name, element in graph.elements.items():
        seconds = 0.0 if element.kind == "output" else \
            duration_map(name)
        prof.record(name, element.kind, seconds, 100, 3)
    return prof


class TestSchedulerProperties:
    @settings(max_examples=40, deadline=None)
    @given(graph_shapes, node_counts)
    def test_every_element_placed_on_valid_node(self, widths, n):
        graph = random_graph(widths)
        for scheduler in SCHEDULERS:
            placement = scheduler.place(graph, n)
            assert set(placement) == set(graph.elements)
            assert all(0 <= node < n for node in placement.values())

    @settings(max_examples=20, deadline=None)
    @given(graph_shapes)
    def test_single_node_everything_on_zero(self, widths):
        graph = random_graph(widths)
        for scheduler in SCHEDULERS:
            assert set(scheduler.place(graph, 1).values()) == {0}


class TestSimulationProperties:
    @settings(max_examples=40, deadline=None)
    @given(graph_shapes, node_counts, st.floats(min_value=0.001,
                                                max_value=0.5))
    def test_makespan_bounds(self, widths, n, base):
        """serial/n <= makespan <= serial (with free transfers)."""
        graph = random_graph(widths)
        prof = profile_for(graph, lambda name: base)
        for scheduler in SCHEDULERS:
            placement = scheduler.place(graph, n)
            sim = simulate_schedule(graph, prof, placement, n,
                                    INFINITE)
            assert sim.makespan_seconds <= sim.serial_seconds + 1e-9
            assert sim.makespan_seconds >= \
                sim.serial_seconds / n - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(graph_shapes, node_counts)
    def test_makespan_at_least_critical_path(self, widths, n):
        graph = random_graph(widths)
        prof = profile_for(graph, lambda name: 0.01)
        levels = graph.levels()
        critical = (max(levels.values()) + 1 - 1) * 0.01  # output=0s
        placement = LevelScheduler().place(graph, n)
        sim = simulate_schedule(graph, prof, placement, n, INFINITE)
        assert sim.makespan_seconds >= critical - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(graph_shapes, node_counts)
    def test_more_nodes_never_hurt_with_free_transfers(self, widths,
                                                       n):
        graph = random_graph(widths)
        prof = profile_for(graph, lambda name: 0.01)
        scheduler = LevelScheduler()
        small = simulate_schedule(graph, prof,
                                  scheduler.place(graph, n), n,
                                  INFINITE)
        big = simulate_schedule(graph, prof,
                                scheduler.place(graph, n + 1), n + 1,
                                INFINITE)
        assert big.makespan_seconds <= small.makespan_seconds + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(graph_shapes)
    def test_timeline_consistent(self, widths):
        graph = random_graph(widths)
        prof = profile_for(graph, lambda name: 0.02)
        placement = LevelScheduler().place(graph, 3)
        sim = simulate_schedule(graph, prof, placement, 3, INFINITE)
        for name, element in graph.elements.items():
            start, end, node = sim.timeline[name]
            assert node == placement[name]
            for input_name in element.inputs:
                assert sim.timeline[input_name][1] <= start + 1e-12
