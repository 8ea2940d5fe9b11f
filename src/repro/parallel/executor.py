"""Parallel query execution across the simulated cluster.

Implements the scheme of Section 4.3 / Fig. 3: query elements are
distributed over cluster nodes, each node running an independent
database server for the temp tables; an element's input vectors are
shipped to its node before it runs; the frontend keeps the persistent
experiment data which only source elements read.

Execution is dataflow-driven: every element becomes runnable the moment
all of its producers finished (no artificial level barrier), executed on
a thread pool with one worker per node.  SQLite releases the GIL inside
statement execution, so elements on different node databases genuinely
overlap.
"""

from __future__ import annotations

import contextlib
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

from .. import faults as _faults
from ..core.access import UserClass
from ..core.errors import QueryError
from ..core.experiment import Experiment
from ..db.temptables import TempTableManager
from ..faults import NodeDeathFault
from ..obs.profile import QueryProfile, profile_spans
from ..obs.metrics import count
from ..obs.tracer import current_tracer, maybe_span, use_tracer
from ..query.cache import QueryCache, plan_cached_run
from ..query.elements import QueryContext
from ..query.engine import Query, QueryResult, resolve_cache, run_unit
from ..query.pushdown import PushdownPlan
from ..query.vectors import DataVector
from .cluster import SimulatedCluster, copy_vector
from .scheduler import LevelScheduler, Scheduler

__all__ = ["ParallelQueryExecutor", "ParallelRunStats"]


@dataclass
class ParallelRunStats:
    """Bookkeeping of one parallel query run."""

    n_nodes: int = 1
    scheduler: str = ""
    placement: dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    transfer_seconds: float = 0.0
    transfers: int = 0
    #: sum of element execution times (the serial work)
    busy_seconds: float = 0.0
    #: summed time elements spent runnable-but-waiting for a worker
    queue_wait_seconds: float = 0.0
    #: elements served from the query cache / executed cold
    cache_hits: int = 0
    cache_misses: int = 0
    #: graceful degradation: nodes that died mid-run and the number of
    #: elements re-placed onto the survivors
    node_deaths: int = 0
    dead_nodes: list[int] = field(default_factory=list)
    replaced_elements: int = 0

    @property
    def parallel_efficiency(self) -> float:
        """busy / (wall * nodes) — 1.0 means perfectly packed nodes."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.busy_seconds / (self.wall_seconds * self.n_nodes)


class ParallelQueryExecutor:
    """Runs queries on a :class:`SimulatedCluster`."""

    def __init__(self, cluster: SimulatedCluster,
                 scheduler: Scheduler | None = None):
        self.cluster = cluster
        self.scheduler = scheduler or LevelScheduler()

    def execute(self, query: Query, experiment: Experiment, *,
                profile: bool = False,
                keep_temp_tables: bool = False,
                cache: "QueryCache | bool | None" = None,
                pushdown: bool = False
                ) -> tuple[QueryResult, ParallelRunStats]:
        """Execute ``query``; returns the result plus run statistics.

        The query leases its tables on each node with a manager of its
        own and releases them when it ends, also when it fails, unless
        ``keep_temp_tables`` (the result's vectors then stay readable
        until the cluster shuts down).  A re-run query leases the
        tables the last run released.

        With ``cache`` the run is incremental: every element's key is
        probed upfront, cached subgraphs are treated as
        already-completed producers — the scheduler only places the
        cold remainder.  Missed sources are stored into the shared
        cache on the frontend before scheduling, like hits; every
        other miss is stored once the run is over.

        ``pushdown`` fuses linear element chains into single SQL
        statements (:mod:`repro.query.pushdown`): each fused group is
        scheduled as one unit placed on its tail element's node, where
        the single statement runs against the shipped external inputs.
        Each unit runs the way the serial engine runs it
        (:func:`~repro.query.engine.run_unit`); with an active cache no
        chain fuses.
        """
        experiment.access.check(experiment.user, UserClass.QUERY,
                                f"execute query {query.name!r}")
        qcache = resolve_cache(cache, experiment)
        leases = {node.index: TempTableManager(
                      node.db, prefix=f"pbnode{node.index}")
                  for node in self.cluster.nodes}
        with profile_spans(profile) as spans:
            # one root span per run: upfront cache hits, scheduled
            # elements and deferred cache stores all nest below it
            with maybe_span(query.name, kind="parallel",
                            nodes=len(self.cluster),
                            scheduler=self.scheduler.name,
                            elements=len(query.graph.elements)) as root:
                with contextlib.ExitStack() as release:
                    if not keep_temp_tables:
                        for lease in leases.values():
                            release.enter_context(lease)
                    result, stats = self._run(query, experiment, qcache,
                                              pushdown, root, leases)
        if spans is not None:
            result.profile = QueryProfile.from_spans(
                spans.spans, query.name, query=root.span_id)
        return result, stats

    def _run(self, query: Query, experiment: Experiment,
             qcache: QueryCache | None, pushdown: bool, root_span,
             leases: dict[int, TempTableManager]
             ) -> tuple[QueryResult, ParallelRunStats]:
        graph = query.graph
        if qcache is not None:
            # node connections may still hold open read transactions
            # on the attached experiment database from a previous run
            # (element SQL never commits); release them so the cache
            # can create tables on the frontend
            for node in self.cluster.nodes:
                node.db.commit()
        plan = plan_cached_run(qcache, graph, experiment)
        # missed sources are stored into their entries on the frontend
        # before any worker reads the experiment database
        stored = {name: plan.extend(graph.elements[name], experiment,
                                    query.name)
                  for name in plan.sources}
        # each unit is a group tail or a lone element; absorbed group
        # members never get scheduled
        units = (query.pushdown_plan(cache_active=qcache is not None)
                 if pushdown else PushdownPlan())
        done = frozenset(plan.hits) | frozenset(stored)
        absorbed = frozenset(n for n in units.member_of
                             if units.absorbed(n))

        placement = self.scheduler.place(
            graph, len(self.cluster), skip=done | absorbed)
        stats = ParallelRunStats(n_nodes=len(self.cluster),
                                 scheduler=self.scheduler.name,
                                 placement=placement)

        # per-node context: element outputs land on the element's node
        contexts = {
            node.index: QueryContext(
                experiment=experiment, db=node.db,
                temptables=leases[node.index])
            for node in self.cluster.nodes}
        vectors: dict[str, DataVector] = {}
        transfer_base = self.cluster.transfer_seconds
        transfers_base = self.cluster.transfers

        # cached subgraphs count as already-completed producers: their
        # vectors (persistent pbc_ tables on the experiment database)
        # are available to every node via the usual input shipping
        for name, entry in plan.hits.items():
            vectors[name] = plan.load(graph.elements[name], entry)
        stats.cache_hits += len(plan.hits)
        vectors.update(stored)
        stats.cache_misses += len(stored)

        # a unit becomes runnable when the inputs it reads from outside
        # itself are done
        remaining = {name: units.inputs(graph, name) - done
                     for name in graph.elements
                     if name not in done and name not in absorbed}
        running: dict[Future, str] = {}
        errors: list[BaseException] = []
        busy = [0.0]
        queue_wait = [0.0]
        #: guards the run's shared tallies and ``pending_puts``
        lock = threading.Lock()
        #: misses to persist once the run is over — storing means DDL
        #: on the experiment database, which would deadlock against the
        #: read locks concurrently-running workers hold on it
        pending_puts: list[tuple] = []

        # Worker threads start in a fresh contextvars context, so the
        # tracer active here must be re-activated inside each worker,
        # with the run-root span as explicit parent for proper nesting.
        tracer = current_tracer()

        def run_element(name: str, ready_at: float) -> None:
            waited = time.perf_counter() - ready_at
            with lock:
                queue_wait[0] += waited
            element = graph.elements[name]
            node = self.cluster.node(placement[name])
            if _faults.ACTIVE is not None:
                # a NodeDeathFault raised here surfaces through the
                # future; the main loop re-places this node's pending
                # work on the surviving nodes
                _faults.ACTIVE.check("parallel.worker",
                                     node=node.index, element=name)
            ctx = contexts[node.index]
            count("parallel.queue_wait_seconds", waited)
            count("parallel.queue_waits")
            miss = plan.is_miss(element)
            with use_tracer(tracer, parent=root_span):
                with maybe_span(f"node{node.index}", kind="node",
                                element=name):
                    # ship inputs to this node (Fig. 3 data movement)
                    for input_name in sorted(units.inputs(graph, name)):
                        ctx.vectors[input_name] = copy_vector(
                            vectors[input_name], node, self.cluster,
                            leases[node.index])
                    start = time.perf_counter()
                    vector = run_unit(ctx, graph, units, element,
                                      miss=miss)
                    with lock:
                        busy[0] += time.perf_counter() - start
                if miss and vector is not None:
                    with lock:
                        stats.cache_misses += 1
                        pending_puts.append((element, vector))
            if vector is not None:
                vectors[name] = vector

        dead: set[int] = set()

        def handle_node_death(fault: NodeDeathFault, name: str) -> None:
            """Graceful degradation: bury the node, re-place its work.

            The element that died plus every not-yet-started element
            placed on the dead node are re-placed over the surviving
            nodes with the run's own scheduler (placement of elements
            on live nodes is untouched).  Vectors the node already
            produced were shipped to their consumers' nodes on use and
            stay readable, so only pending work moves.
            """
            node_index = (fault.node if fault.node >= 0
                          else placement.get(name, -1))
            if node_index not in dead:
                dead.add(node_index)
                stats.node_deaths += 1
                stats.dead_nodes.append(node_index)
            alive = [n.index for n in self.cluster.nodes
                     if n.index not in dead]
            if not alive:
                errors.append(QueryError(
                    f"parallel query {query.name!r}: every cluster "
                    "node died"))
                remaining.clear()
                return
            # the dying element's producers all finished (it had been
            # submitted), so it re-enters the ready queue directly
            remaining[name] = set()
            to_move = {pending for pending in remaining
                       if placement.get(pending) in dead}
            to_move.add(name)
            sub = self.scheduler.place(
                graph, len(alive),
                skip=frozenset(graph.elements) - to_move)
            for moved, index in sub.items():
                placement[moved] = alive[index]
            stats.replaced_elements += len(to_move)
            count("parallel.node_deaths")
            count("parallel.replaced_elements", len(to_move))

        start_wall = time.perf_counter()
        with ThreadPoolExecutor(max_workers=len(self.cluster)) as pool:

            def submit_ready() -> None:
                now = time.perf_counter()
                for name in list(remaining):
                    if not remaining[name]:
                        del remaining[name]
                        future = pool.submit(run_element, name, now)
                        running[future] = name

            submit_ready()
            while running:
                finished, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in finished:
                    name = running.pop(future)
                    exc = future.exception()
                    if isinstance(exc, NodeDeathFault):
                        handle_node_death(exc, name)
                        continue
                    if exc is not None:
                        errors.append(exc)
                        remaining.clear()
                        continue
                    for other in remaining.values():
                        other.discard(name)
                submit_ready()
        if pending_puts:
            # release the read locks held by the workers' element SQL
            # before storing (DDL on the experiment database)
            for node in self.cluster.nodes:
                node.db.commit()
            for element, vector in pending_puts:
                plan.put(element, vector, query.name)
        stats.wall_seconds = time.perf_counter() - start_wall
        stats.busy_seconds = busy[0]
        stats.queue_wait_seconds = queue_wait[0]
        stats.transfer_seconds = (self.cluster.transfer_seconds
                                  - transfer_base)
        stats.transfers = self.cluster.transfers - transfers_base
        count("parallel.queries")
        count("parallel.busy_seconds", busy[0])
        count("parallel.transfer_seconds", stats.transfer_seconds)

        if errors:
            raise QueryError(
                f"parallel query {query.name!r} failed: {errors[0]}"
            ) from errors[0]

        result = QueryResult()
        for output in graph.outputs:
            result.artifacts.extend(output.artifacts)
        result.vectors = vectors
        return result, stats
