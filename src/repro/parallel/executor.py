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

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field

from .. import faults as _faults
from ..core.access import UserClass
from ..core.errors import QueryError
from ..core.experiment import Experiment
from ..faults import NodeDeathFault
from ..obs.tracer import current_tracer, use_tracer
from ..query.cache import (CacheEntry, QueryCache, cache_key,
                           content_fingerprint)
from ..query.elements import QueryContext
from ..query.engine import Query, QueryResult, resolve_cache
from ..query.pushdown import PushdownPlan, run_fused_group
from ..query.vectors import DataVector
from .cluster import SimulatedCluster, copy_vector
from .profiling import QueryProfile
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
                 scheduler: Scheduler | None = None, *,
                 apply_network_delay: bool = False):
        self.cluster = cluster
        self.scheduler = scheduler or LevelScheduler()
        self.apply_network_delay = apply_network_delay

    def execute(self, query: Query, experiment: Experiment, *,
                profile: bool = False,
                cache: "QueryCache | bool | None" = None,
                pushdown: bool = False
                ) -> tuple[QueryResult, ParallelRunStats]:
        """Execute ``query``; returns the result plus run statistics.

        With ``cache`` the run is incremental: cached subgraphs are
        resolved upfront from structural fingerprints and treated as
        already-completed producers — the scheduler only places the
        cold remainder.  Workers additionally try result-chained keys
        just before executing (so after an import, elements whose
        inputs turn out content-identical still hit) and store every
        miss back into the shared cache.

        ``pushdown`` fuses linear element chains into single SQL
        statements (:mod:`repro.query.pushdown`): each fused group is
        scheduled as one unit placed on its tail element's node, where
        the single statement runs against the shipped external inputs.
        Inert with an active cache (every cacheable element is a
        hit/miss seam, so the plan fuses nothing).
        """
        experiment.access.check(experiment.user, UserClass.QUERY,
                                f"execute query {query.name!r}")
        graph = query.graph
        qcache = resolve_cache(cache, experiment)

        # -- upfront structural resolution (prune cached subgraphs) ----
        data_version = 0
        structural: dict[str, str] = {}
        probed_misses: set[str] = set()
        resolved: dict[str, CacheEntry] = {}
        skipped: set[str] = set()
        if qcache is not None:
            # node connections may still hold open read transactions
            # on the attached experiment database from a previous run
            # (element SQL never commits); release them so the cache
            # can create tables on the frontend
            for node in self.cluster.nodes:
                node.db.commit()
            data_version = experiment.store.data_version()
            qcache.prune_stale(data_version)
            structural = graph.fingerprints(
                {"experiment": experiment.name,
                 "data_version": data_version})
            plan: dict[str, object] = {}
            for element in reversed(graph.topological_order()):
                name = element.name
                if not element.cacheable:
                    plan[name] = "exec"
                    continue
                consumers = graph.consumers(name)
                needed = (not consumers) or any(
                    plan[c] == "exec" for c in consumers)
                entry = qcache.lookup_structural(structural[name],
                                                 count=needed)
                if entry is not None:
                    plan[name] = entry
                    resolved[name] = entry
                elif needed:
                    plan[name] = "exec"
                    probed_misses.add(structural[name])
                else:
                    plan[name] = "skip"
                    skipped.add(name)

        # -- pushdown plan: absorbed members never get scheduled -------
        # (unfused, the plan is empty: every element its own group)
        pd_plan = (query.pushdown_plan() if pushdown and qcache is None
                   else PushdownPlan())
        absorbed = frozenset(n for n in pd_plan.member_of
                             if pd_plan.absorbed(n))

        placement = self.scheduler.place(
            graph, len(self.cluster),
            skip=frozenset(resolved) | skipped | absorbed)
        prof = QueryProfile(query_name=query.name) if profile else None
        stats = ParallelRunStats(n_nodes=len(self.cluster),
                                 scheduler=self.scheduler.name,
                                 placement=placement)

        # per-node context: element outputs land on the element's node
        contexts = {
            node.index: QueryContext(
                experiment=experiment, db=node.db,
                temptables=node.temptables, profile=prof)
            for node in self.cluster.nodes}
        vectors: dict[str, DataVector] = {}
        transfer_base = self.cluster.transfer_seconds
        transfers_base = self.cluster.transfers

        # cached subgraphs count as already-completed producers: their
        # vectors (persistent pbc_ tables on the experiment database)
        # are available to every node via the usual input shipping
        for name, entry in resolved.items():
            vectors[name] = qcache.load(entry)
            stats.cache_hits += 1

        remaining = {name: set(element.inputs) - set(resolved) - skipped
                     for name, element in graph.elements.items()
                     if name not in resolved and name not in skipped
                     and name not in absorbed}
        # a fused group becomes runnable when the inputs arriving from
        # OUTSIDE the group are done (interior edges are subsumed by
        # the single statement)
        for tail, members in pd_plan.groups.items():
            remaining[tail] = {
                i for m in members
                for i in graph.elements[m].inputs
                if i not in members}
        done: set[str] = set()
        running: dict[Future, str] = {}
        errors: list[BaseException] = []
        busy = [0.0]
        queue_wait = [0.0]
        wait_lock = threading.Lock()
        #: content hashes of completed producers (guarded by hash_lock)
        hashes: dict[str, str | None] = {
            name: entry.result_hash for name, entry in resolved.items()}
        hash_lock = threading.Lock()
        #: misses to persist once the run is over — storing means DDL
        #: on the experiment database, which would deadlock against the
        #: read locks concurrently-running workers hold on it
        pending_puts: list[tuple[str, str, DataVector, str, int, int]] \
            = []

        # Worker threads start in a fresh contextvars context, so the
        # tracer active here must be re-activated inside each worker,
        # with the run-root span as explicit parent for proper nesting.
        tracer = current_tracer()

        def dynamic_entry(element) -> "tuple[str | None, CacheEntry | None]":
            """Result-chained lookup right before execution."""
            if qcache is None or not element.cacheable:
                return None, None
            with hash_lock:
                input_hashes = [hashes.get(i) for i in element.inputs]
            key = cache_key(element, input_hashes,
                            data_version=data_version,
                            experiment_name=experiment.name)
            if key is None or key in probed_misses:
                return key, None
            return key, qcache.lookup(
                key, refresh_skey=structural[element.name])

        def run_element(name: str, ready_at: float,
                        parent_span) -> None:
            waited = time.perf_counter() - ready_at
            with wait_lock:
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
            with use_tracer(tracer, parent=parent_span):
                if tracer is not None:
                    tracer.metrics.histogram(
                        "parallel.queue_wait_seconds").observe(waited)
                key, entry = dynamic_entry(element)
                if entry is not None:
                    # cache hit discovered mid-run: no shipping, no
                    # execution — the cached vector acts as produced
                    vector = qcache.load(entry)
                    if tracer is not None:
                        with tracer.span(name, kind=element.kind,
                                         cache="hit") as span:
                            span.attributes["rows"] = entry.n_rows
                            span.attributes["cols"] = len(entry.columns)
                    if prof is not None:
                        prof.record(name, element.kind, 0.0,
                                    entry.n_rows, len(entry.columns),
                                    cached=True)
                    with hash_lock:
                        hashes[name] = entry.result_hash
                        stats.cache_hits += 1
                    vectors[name] = vector
                    return
                node_cm = (tracer.span(
                    f"node{node.index}", kind="node", element=name)
                    if tracer is not None else nullcontext())
                with node_cm:
                    if name in pd_plan.groups:
                        # ship the group's external inputs, then run
                        # the whole chain as one statement on this node
                        members = pd_plan.groups[name]
                        for input_name in sorted(
                                {i for m in members
                                 for i in graph.elements[m].inputs
                                 if i not in members}):
                            ctx.vectors[input_name] = copy_vector(
                                vectors[input_name], node, self.cluster,
                                apply_delay=self.apply_network_delay)
                        start = time.perf_counter()
                        vector = run_fused_group(ctx, graph, pd_plan,
                                                 name)
                        busy[0] += time.perf_counter() - start
                        if vector is not None:
                            vectors[name] = vector
                        return
                    # ship inputs to this node (Fig. 3 data movement)
                    for input_name in element.inputs:
                        ctx.vectors[input_name] = copy_vector(
                            vectors[input_name], node, self.cluster,
                            apply_delay=self.apply_network_delay)
                    start = time.perf_counter()
                    vector = element.execute(
                        ctx, span_attrs=(
                            {"cache": "miss"}
                            if qcache is not None and element.cacheable
                            else None))
                    busy[0] += time.perf_counter() - start
                if qcache is not None and element.cacheable \
                        and vector is not None:
                    rhash, n_rows, n_bytes = content_fingerprint(vector)
                    with hash_lock:
                        hashes[name] = rhash
                        stats.cache_misses += 1
                        if key is not None:
                            pending_puts.append(
                                (name, key, vector, rhash, n_rows,
                                 n_bytes))
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
            if tracer is not None:
                tracer.metrics.counter("parallel.node_deaths").inc()
                tracer.metrics.counter(
                    "parallel.replaced_elements").inc(len(to_move))

        start_wall = time.perf_counter()
        with ExitStack() as stack:
            root_span = None
            if tracer is not None:
                root_span = stack.enter_context(tracer.span(
                    query.name, kind="parallel",
                    nodes=len(self.cluster),
                    scheduler=self.scheduler.name,
                    elements=len(graph.elements)))
            pool = stack.enter_context(ThreadPoolExecutor(
                max_workers=len(self.cluster)))

            def submit_ready() -> None:
                now = time.perf_counter()
                for name in list(remaining):
                    if not remaining[name]:
                        del remaining[name]
                        future = pool.submit(run_element, name, now,
                                             root_span)
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
                    done.add(name)
                    for other in remaining.values():
                        other.discard(name)
                submit_ready()
        if qcache is not None and pending_puts:
            # release the read locks held by the workers' element SQL
            # before storing (DDL on the experiment database)
            for node in self.cluster.nodes:
                node.db.commit()
            for name, key, vector, rhash, n_rows, n_bytes in \
                    pending_puts:
                qcache.put(key, structural[name], graph.elements[name],
                           vector, result_hash=rhash, n_rows=n_rows,
                           n_bytes=n_bytes, data_version=data_version,
                           query_name=query.name)
        stats.wall_seconds = time.perf_counter() - start_wall
        stats.busy_seconds = busy[0]
        stats.queue_wait_seconds = queue_wait[0]
        stats.transfer_seconds = (self.cluster.transfer_seconds
                                  - transfer_base)
        stats.transfers = self.cluster.transfers - transfers_base
        if tracer is not None:
            metrics = tracer.metrics
            metrics.counter("parallel.queries").inc()
            metrics.counter("parallel.busy_seconds").inc(busy[0])
            metrics.counter("parallel.transfer_seconds").inc(
                stats.transfer_seconds)

        if errors:
            raise QueryError(
                f"parallel query {query.name!r} failed: {errors[0]}"
            ) from errors[0]

        result = QueryResult(profile=prof)
        for output in graph.outputs:
            result.artifacts.extend(output.artifacts)
        result.vectors = vectors
        return result, stats
