"""Parallel query processing on a simulated cluster (paper Section 4.3,
Fig. 3) and a schedule simulator fed by per-element query profiles
(:class:`repro.obs.QueryProfile`)."""

from .cluster import ClusterNode, SimulatedCluster, copy_vector
from .executor import ParallelQueryExecutor, ParallelRunStats
from .network import (ETHERNET_1G, HIGH_SPEED, INFINITE,
                      InterconnectModel)
from .scheduler import (LevelScheduler, LocalityScheduler,
                        RoundRobinScheduler, Scheduler)
from .simulation import (SimulatedSchedule, simulate_schedule,
                         speedup_curve)

__all__ = [
    "ClusterNode", "SimulatedCluster", "copy_vector",
    "ParallelQueryExecutor", "ParallelRunStats", "ETHERNET_1G",
    "HIGH_SPEED", "INFINITE", "InterconnectModel",
    "LevelScheduler", "LocalityScheduler",
    "RoundRobinScheduler", "Scheduler", "SimulatedSchedule",
    "simulate_schedule", "speedup_curve",
]
