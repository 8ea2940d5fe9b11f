"""Discrete-event simulation of parallel query schedules (Fig. 3).

The thread-based :class:`~repro.parallel.executor.ParallelQueryExecutor`
runs the Fig. 3 scheme for real, but measured wall-clock speedup needs
multiple CPU cores / cluster nodes.  This module complements it with a
*schedule simulator*: given the per-element durations of a profiled
serial run, an element placement and an interconnect model, it computes
the parallel makespan the cluster of Fig. 3 would achieve.

This answers the planning question behind Section 4.3 — "it would make
working with perfbase a more interactive experience if this delay could
be reduced by some factor" and "the number of cluster nodes that can be
used efficiently is limited to the effective degree of parallelism in
the query processing" — without needing the cluster: profile once, then
sweep node counts and schedulers in simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from ..core.errors import QueryError
from ..obs.profile import QueryProfile
from ..query.graph import QueryGraph
from .network import HIGH_SPEED, InterconnectModel
from .scheduler import LevelScheduler, Scheduler

__all__ = ["SimulatedSchedule", "simulate_schedule", "speedup_curve"]


@dataclass
class SimulatedSchedule:
    """Outcome of one simulated parallel execution."""

    n_nodes: int
    makespan_seconds: float
    serial_seconds: float
    transfers: int
    transfer_seconds: float
    #: per-element (start, finish, node)
    timeline: dict[str, tuple[float, float, int]] = field(
        default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.makespan_seconds <= 0:
            return 1.0
        return self.serial_seconds / self.makespan_seconds

    @property
    def efficiency(self) -> float:
        return self.speedup / self.n_nodes


def simulate_schedule(graph: QueryGraph,
                      profile: QueryProfile,
                      placement: dict[str, int],
                      n_nodes: int,
                      interconnect: InterconnectModel = HIGH_SPEED
                      ) -> SimulatedSchedule:
    """Simulate executing ``graph`` with the given placement.

    ``profile`` must come from a (serial) profiled run of the same
    query: it supplies each element's duration and output-vector size.
    An element starts once its node is idle *and* every input vector
    has arrived (producer finish plus transfer time when the producer
    ran on a different node).
    """
    missing = set(graph.elements) - {t.name for t in profile.timings}
    if missing:
        raise QueryError(
            "profile lacks timings for elements: "
            + ", ".join(sorted(missing)))

    node_free = [0.0] * n_nodes
    finish: dict[str, float] = {}
    timeline: dict[str, tuple[float, float, int]] = {}
    transfers = 0
    transfer_seconds = 0.0

    for name in nx.lexicographical_topological_sort(graph.graph):
        element = graph.elements[name]
        node = placement[name]
        timing = profile.timing_of(name)
        arrival = 0.0
        for input_name in element.inputs:
            ready = finish[input_name]
            if placement[input_name] != node:
                it = profile.timing_of(input_name)
                cost = interconnect.transfer_seconds(it.rows, it.cols)
                transfers += 1
                transfer_seconds += cost
                ready += cost
            arrival = max(arrival, ready)
        start = max(arrival, node_free[node])
        end = start + timing.seconds
        node_free[node] = end
        finish[name] = end
        timeline[name] = (start, end, node)

    return SimulatedSchedule(
        n_nodes=n_nodes,
        makespan_seconds=max(finish.values()) if finish else 0.0,
        serial_seconds=sum(t.seconds for t in profile.timings
                           if t.name in graph.elements),
        transfers=transfers,
        transfer_seconds=transfer_seconds,
        timeline=timeline)


def speedup_curve(graph: QueryGraph, profile: QueryProfile,
                  node_counts: list[int],
                  scheduler: Scheduler | None = None,
                  interconnect: InterconnectModel = HIGH_SPEED
                  ) -> dict[int, SimulatedSchedule]:
    """Simulated schedule per node count (same scheduler policy)."""
    scheduler = scheduler or LevelScheduler()
    out: dict[int, SimulatedSchedule] = {}
    for n in node_counts:
        placement = scheduler.place(graph, n)
        out[n] = simulate_schedule(graph, profile, placement, n,
                                   interconnect)
    return out
