"""Serial query execution engine.

Executes a :class:`~repro.query.graph.QueryGraph` against one
experiment, exactly the way Section 4.2 describes: all temp tables live
in the experiment's own database and elements run one after another in
topological order.  How each element runs is decided here, by
:func:`run_unit`; the parallel executor (:mod:`repro.parallel`) runs
the same units with per-node databases.

With a :class:`~repro.query.cache.QueryCache` the engine becomes
*incremental*: every element's key is computed and probed before
anything runs, hits are installed instead of run, and misses run and
are stored for the next run —
a missed source is stored straight into its entry, reading only the
runs its family's entry lacks.
See :mod:`repro.query.cache` for the key and invalidation scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..core.access import UserClass
from ..core.experiment import Experiment
from ..db.temptables import TempTableManager
from ..obs.profile import QueryProfile, profile_spans
from ..obs.tracer import maybe_span
from ..output.base import Artifact
from .cache import QueryCache, plan_cached_run
from .elements import QueryContext, QueryElement
from .graph import QueryGraph
from .pushdown import PushdownPlan, plan_pushdown, run_fused_group
from .vectors import DataVector

__all__ = ["Query", "QueryResult", "resolve_cache", "run_unit"]


@dataclass
class QueryResult:
    """Everything a query run produced."""

    #: rendered artefacts of all output elements, in element order
    artifacts: list[Artifact] = field(default_factory=list)
    #: final vectors by element name (outputs excluded — they render)
    vectors: dict[str, DataVector] = field(default_factory=dict)
    #: per-element timing, if profiling was requested (a view over
    #: the run's element spans)
    profile: QueryProfile | None = None

    def artifact(self, name: str) -> Artifact:
        for a in self.artifacts:
            if a.name == name:
                return a
        available = ", ".join(sorted(a.name for a in self.artifacts))
        raise KeyError(
            f"no artifact named {name!r} "
            f"(available: {available or 'none'})")

    def write_all(self, directory: str) -> list[str]:
        """Write every artefact below ``directory``; returns paths."""
        return [a.write_to(directory) for a in self.artifacts]


def run_unit(ctx: QueryContext, graph: QueryGraph, plan: PushdownPlan,
             element: QueryElement, *,
             miss: bool = False) -> DataVector | None:
    """Run ``element`` as one unit of work — how the serial engine and
    the parallel executor both run everything that is neither a cache
    hit, a missed source (stored by
    :meth:`~repro.query.cache.CachePlan.extend`), nor absorbed by a
    fused group.

    A group tail of ``plan`` runs its whole chain as one statement;
    anything else runs element-wise, which for an element that can
    fuse is already a fused group of one
    (:meth:`~repro.query.elements.QueryElement.run_fused`).  A cache
    ``miss`` is marked ``cache="miss"`` on its span.
    """
    attrs = {"cache": "miss"} if miss else {}
    if element.name in plan.groups:
        return run_fused_group(ctx, graph, plan, element.name, attrs)
    return element.execute(ctx, span_attrs=attrs)


def resolve_cache(cache: "QueryCache | bool | None",
                  experiment: Experiment) -> QueryCache | None:
    """Normalise the ``cache=`` argument of the execution entry points.

    ``None``/``False`` disable caching, ``True`` uses the experiment's
    default cache, a :class:`QueryCache` instance is used as given.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return experiment.query_cache()
    return cache


class Query:
    """A named query: elements + execution entry point."""

    def __init__(self, elements: Iterable[QueryElement],
                 name: str = "query"):
        self.name = name
        self.graph = QueryGraph(elements)

    @property
    def elements(self) -> dict[str, QueryElement]:
        return self.graph.elements

    def execute(self, experiment: Experiment, *,
                profile: bool = False,
                keep_temp_tables: bool = False,
                cache: "QueryCache | bool | None" = None,
                pushdown: bool = False) -> QueryResult:
        """Run the query serially against ``experiment``.

        The acting user needs query access.  Temp tables are dropped on
        completion unless ``keep_temp_tables`` (final vectors are then
        still readable by the caller, e.g. for tests).

        ``cache`` turns on the incremental engine: pass ``True`` for
        the experiment's default :class:`QueryCache` or an instance
        with its own byte budget.  Cached element vectors live in
        persistent ``pbc_`` tables of the experiment database, so they
        survive this process and stay readable after temp-table
        cleanup.  Warm results are value-identical to cold ones.

        ``pushdown`` turns on SQL chain fusion
        (:mod:`repro.query.pushdown`): maximal linear element chains
        run as one nested-subquery statement, materialised only at the
        chain tail; without it every element is a group of one.
        Results are byte-identical either way; absorbed
        interior elements simply produce no intermediate vector.  With
        an active cache the plan is empty (:meth:`pushdown_plan`), so
        ``pushdown`` changes nothing about how its misses run.
        """
        experiment.access.check(experiment.user, UserClass.QUERY,
                                f"execute query {self.name!r}")
        qcache = resolve_cache(cache, experiment)
        units = (self.pushdown_plan(cache_active=qcache is not None)
                 if pushdown else PushdownPlan())
        db = experiment.store.db
        temptables = TempTableManager(db, prefix=f"pbq_{_safe(self.name)}")
        ctx = QueryContext(experiment=experiment, db=db,
                           temptables=temptables)
        result = QueryResult()
        with profile_spans(profile) as spans, db.read_transaction():
            try:
                with maybe_span(self.name, kind="query", mode="serial",
                                elements=len(self.graph.elements)
                                ) as root:
                    # hits are installed, absorbed elements never run,
                    # missed sources are stored into their entries,
                    # everything else runs as a unit
                    plan = plan_cached_run(qcache, self.graph, experiment)
                    for element in self.graph.topological_order():
                        name = element.name
                        if units.absorbed(name):
                            continue
                        if name in plan.hits:
                            ctx.vectors[name] = plan.load(
                                element, plan.hits[name])
                            continue
                        if name in plan.sources:
                            ctx.vectors[name] = plan.extend(
                                element, experiment, self.name)
                            continue
                        miss = plan.is_miss(element)
                        vector = run_unit(ctx, self.graph, units, element,
                                          miss=miss)
                        if miss and vector is not None:
                            plan.put(element, vector, self.name)
                for output in self.graph.outputs:
                    result.artifacts.extend(output.artifacts)
                result.vectors = dict(ctx.vectors)
            finally:
                if not keep_temp_tables:
                    temptables.drop_all()
        if spans is not None:
            result.profile = QueryProfile.from_spans(
                spans.spans, self.name, query=root.span_id)
        return result

    def pushdown_plan(self, cache_active: bool = False) -> PushdownPlan:
        """The chain-fusion plan of this query (see
        :func:`repro.query.pushdown.plan_pushdown`).  With
        ``cache_active`` the plan is empty: every cacheable element is
        a hit/miss seam, and the only uncacheable elements, outputs,
        cannot fuse."""
        return PushdownPlan() if cache_active else plan_pushdown(self.graph)


def _safe(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)
