"""Interconnect model for the simulated cluster.

Section 4.3: "The access to the database servers on remote nodes is
performed via sockets, possible using a high-speed interconnection
network."  We have no cluster, so vector transfers between node
databases are charged against a latency/bandwidth model: every shipped
vector adds its modelled transfer time to the cluster's tally, and the
schedule simulator (:mod:`repro.parallel.simulation`) delays each
consumer on another node by it.  Nothing sleeps.

Default numbers model a 2005-era high-speed interconnect (Myrinet/IB:
~10 µs latency, ~250 MB/s effective bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["InterconnectModel", "ETHERNET_1G", "HIGH_SPEED", "INFINITE"]


@dataclass(frozen=True)
class InterconnectModel:
    """Transfer-cost model between cluster nodes."""

    latency_s: float = 10e-6
    bandwidth_bytes_per_s: float = 250e6
    #: bytes assumed per transferred table cell (value + framing)
    bytes_per_cell: int = 12

    def transfer_seconds(self, n_rows: int, n_cols: int) -> float:
        """Modelled wall time to ship a vector between two nodes."""
        payload = n_rows * n_cols * self.bytes_per_cell
        return self.latency_s + payload / self.bandwidth_bytes_per_s


#: gigabit ethernet (commodity cluster)
ETHERNET_1G = InterconnectModel(latency_s=50e-6,
                                bandwidth_bytes_per_s=110e6)
#: high-speed interconnect (the paper's scenario)
HIGH_SPEED = InterconnectModel()
#: free transfers — upper bound / ablation
INFINITE = InterconnectModel(latency_s=0.0,
                             bandwidth_bytes_per_s=float("inf"))
