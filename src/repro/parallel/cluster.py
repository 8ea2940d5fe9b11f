"""The simulated cluster: one frontend plus N worker database servers.

Fig. 3 of the paper: the "cluster or frontend node ... runs the database
server with the persistent experiment data"; every other node runs "an
independent database server" holding only temporary query-element
tables.  Here each node owns one in-memory SQLite database (a real,
independent database engine instance — SQLite releases the GIL during
statement execution, so per-node databases give genuine concurrency),
and vectors move between nodes through :func:`copy_vector`, charged
against the interconnect model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..db.backend import Database
from ..db.sqlite_backend import SQLiteDatabase
from ..db.temptables import TempTableManager
from ..obs.metrics import count
from ..obs.tracer import maybe_span
from ..query.vectors import DataVector
from .network import HIGH_SPEED, InterconnectModel

__all__ = ["ClusterNode", "SimulatedCluster", "copy_vector"]


@dataclass
class ClusterNode:
    """One node: an independent database server for element outputs.
    ``temptables`` holds the copies :func:`copy_vector` makes outside a
    query; each query leases its node tables with a manager of its own
    and releases them when it ends."""

    index: int
    db: Database
    temptables: TempTableManager = field(init=False)

    def __post_init__(self):
        self.temptables = TempTableManager(
            self.db, prefix=f"pbnode{self.index}")


class SimulatedCluster:
    """N nodes, node 0 doubling as the frontend (Fig. 3).

    The persistent experiment database is *not* owned by the cluster —
    source elements read it wherever it lives; their output vectors and
    everything downstream live on the nodes.
    """

    def __init__(self, n_nodes: int,
                 interconnect: InterconnectModel = HIGH_SPEED):
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        # autocommit: node statements must not keep read locks on the
        # attached experiment database once they finish (the query
        # cache writes there while other nodes sit idle)
        self.nodes = [ClusterNode(i, SQLiteDatabase(":memory:",
                                                    autocommit=True))
                      for i in range(n_nodes)]
        self.interconnect = interconnect
        #: accumulated modelled transfer time (seconds)
        self.transfer_seconds = 0.0
        #: number of inter-node vector transfers performed
        self.transfers = 0

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def frontend(self) -> ClusterNode:
        return self.nodes[0]

    def node(self, index: int) -> ClusterNode:
        return self.nodes[index]

    def shutdown(self) -> None:
        for node in self.nodes:
            node.temptables.drop_all()
            node.db.close()


def copy_vector(vector: DataVector, target: ClusterNode,
                cluster: SimulatedCluster,
                temptables: TempTableManager | None = None) -> DataVector:
    """Materialise ``vector`` on ``target``'s database server, in a
    table of ``temptables`` (by default the node's own).

    This is the Fig. 3 data movement: "the output vector of each query
    element is stored on the node on which the query element(s) run
    which use this data for their input vector."  A vector already
    living on the target node is returned unchanged (no cost).
    """
    if vector.db is target.db:
        return vector
    with maybe_span(f"xfer_{vector.producer or 'v'}",
                    kind="transfer", node=target.index) as span:
        rows = vector.rows()
        seconds = cluster.interconnect.transfer_seconds(
            len(rows), len(vector.columns))
        cluster.transfer_seconds += seconds
        cluster.transfers += 1
        n_bytes = (len(rows) * len(vector.columns)
                   * cluster.interconnect.bytes_per_cell)
        count("transfer.vectors")
        count("transfer.rows", len(rows))
        count("transfer.bytes", n_bytes)
        count("transfer.modelled_seconds", seconds)
        if span is not None:
            span.attributes.update(
                rows=len(rows), cols=len(vector.columns),
                bytes=n_bytes, modelled_seconds=seconds)
        from ..core.datatypes import sql_type
        table = (temptables or target.temptables).new_table(
            f"xfer_{vector.producer or 'v'}",
            [(c.name, sql_type(c.datatype)) for c in vector.columns])
        if rows:
            target.db.insert_rows(
                table, [c.name for c in vector.columns], rows)
    return DataVector(target.db, table, vector.columns,
                      n_rows=len(rows), from_source=vector.from_source,
                      producer=vector.producer)
