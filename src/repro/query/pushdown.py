"""SQL pushdown: every SQL element runs as a fused group.

The paper's element protocol (Section 4.2) materialises a temp table
per DAG edge — faithful, but the CREATE TABLE + INSERT..SELECT +
re-scan round-trip dominates the cold path.  Each SQL-expressible
element has exactly one SQL emitter, its ``fuse()``, which builds a
composable :class:`SelectFragment` over its input fragments; all that
varies is where the result is materialised:

* **element-wise** execution is a *group of one*: ``run()`` wraps each
  input temp table as a scan fragment (:func:`vector_fragment`) and
  materialises its own ``fuse()`` straight into its temp table;
* the **planner** (:func:`plan_pushdown`) merges maximal
  ``source → operator* → combiner?`` chains into one nested-subquery
  statement, materialised once at the chain tail.  Temp tables
  survive only where they are load-bearing:

  - fan-out points — a vector read by several consumers, except a
    source read only by two SQL data-set aggregates that one combiner
    joins: that diamond fuses whole, the combiner computing both
    aggregates in one ``GROUP BY`` over the source;
  - output elements and anything that computes in Python
    (``eval``/``filter``/``use_sql=False``).

  With a :class:`~repro.query.cache.QueryCache` active every cacheable
  element is a potential hit/miss seam, so the query's plan is empty
  (:meth:`~repro.query.engine.Query.pushdown_plan`); a downstream
  cache miss runs element-wise (a missed source is stored straight
  into its cache entry).

A group whose fragment cannot be built (:class:`FusionError`: a shape
the fuser cannot reproduce byte-identically, a source with more
compound operands than SQLite accepts, an unattachable experiment
database) falls back to element-wise groups of one.  Because both
paths run the same emitter, fused and unfused results cannot disagree:
every fragment carries ``order_names`` — projected columns (synthetic
``pb_ord__N`` rowid ordinals where needed; the prefix is reserved for
user column names at definition time) whose sort reproduces exactly
the rowid order the per-element temp table has — and the single final
INSERT applies the same column affinities.  Element fingerprints
(``spec()``) are untouched, so cache keys and sentinel baselines stay
valid either way.

Observability: ``pushdown.groups`` / ``pushdown.fused_elements`` /
``pushdown.statements_saved`` / ``pushdown.fallbacks`` counters, and a
``fused="a,b,c"`` span attribute on the tail element's span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..core.datatypes import sql_type
from ..core.errors import QueryError
from ..core.variables import ORD_PREFIX
from ..db.backend import quote_identifier
from ..obs.metrics import count
from ..obs.tracer import maybe_span
from .vectors import ColumnInfo, DataVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.backend import Database
    from .elements import QueryContext, QueryElement
    from .graph import QueryGraph

__all__ = ["FusionError", "SelectFragment", "PushdownPlan",
           "plan_pushdown", "vector_fragment", "fuse_join",
           "fuse_grouped", "materialise", "ordered_select",
           "insert_select", "run_fused_group", "ORD_PREFIX"]


class FusionError(QueryError):
    """An element (or column shape) cannot join a fused statement.

    Raised during fragment construction of a multi-element group; the
    runner responds by executing the group's members element-wise, as
    groups of one, so a fusion gap is a missed optimisation, never a
    wrong answer.
    """


@dataclass(frozen=True)
class SelectFragment:
    """One composable SELECT: the fused form of an element's output.

    ``sql`` is a complete SELECT statement (no trailing ORDER BY) that
    consumers embed as a derived table — ``FROM (<sql>) s``.  Nesting
    instead of textual substitution keeps name scoping trivial: every
    projected column is addressable as ``s."name"`` one level up.

    ``order_names`` are projected columns whose ascending sort
    reproduces the rowid order of the temp table the unfused element
    would have written — the invariant that makes fused and unfused
    plans byte-identical.  ``hidden`` are the synthetic ``pb_ord__N``
    ordinals among the projected names (not part of the visible
    vector).  ``scan_ordered`` promises that the fragment's *natural*
    emission order already equals that rowid order (true for chains of
    row-preserving operators over a table scan; false after a join),
    which gates fusing order-sensitive aggregates on top.
    ``ord_rowid`` marks a fragment whose single ordinal is a verbatim
    source rowid, enabling positional (``a.rowid = b.rowid``) joins.
    ``rescan_cheap`` is true while the fragment is a bare table scan
    plus row-preserving projections — evaluating it twice costs two
    scans; once it contains an aggregation or a join, every extra
    evaluation recomputes that work, and consumers that must probe
    their input more than once (``norm``'s eager denominator) pin a
    seam table instead.  A data-set aggregate records the fragment it
    groups as ``grouped`` and each column's select expression over it
    (alias ``s``) as ``exprs``, in lockstep with ``columns``: a
    combiner over two aggregates of the same fragment computes both in
    one ``GROUP BY`` (:func:`fuse_grouped`) instead of joining them.
    """

    sql: str
    params: tuple
    columns: tuple[ColumnInfo, ...]
    order_names: tuple[str, ...]
    hidden: tuple[str, ...] = ()
    from_source: bool = False
    scan_ordered: bool = True
    ord_rowid: bool = False
    rescan_cheap: bool = True
    producer: str | None = None
    grouped: "SelectFragment | None" = None
    exprs: tuple[str, ...] = ()

    # the vector-shaped accessors operators/combiners already use on
    # DataVector, so the fused builders share their column logic
    @property
    def parameters(self) -> list[ColumnInfo]:
        return [c for c in self.columns if not c.is_result]

    @property
    def results(self) -> list[ColumnInfo]:
        return [c for c in self.columns if c.is_result]

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def column(self, name: str) -> ColumnInfo:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)


def vector_fragment(vector: DataVector) -> SelectFragment:
    """Wrap a materialised vector as a chain-head fragment.

    Projects every visible column plus the table rowid as
    ``pb_ord__0`` — downstream fragments thread that ordinal through
    so the final materialisation can restore insertion order.
    """
    ordinal = f"{ORD_PREFIX}0"
    cols = [quote_identifier(c.name) for c in vector.columns]
    sql = (f"SELECT {', '.join(cols)}, "
           f"rowid AS {quote_identifier(ordinal)} "
           f"FROM {quote_identifier(vector.table)}")
    return SelectFragment(
        sql, (), tuple(vector.columns), (ordinal,), (ordinal,),
        from_source=vector.from_source, scan_ordered=True,
        ord_rowid=True, producer=vector.producer)


def fuse_join(left: SelectFragment, right: SelectFragment,
              items: list[str], out_cols: Iterable[ColumnInfo],
              shared: list[str], producer: str) -> SelectFragment:
    """Join two fragments (binary operators and combiners).

    ``items`` are rendered select expressions over aliases ``a``
    (left) and ``b`` (right).  Joins on the shared parameter names, or
    positionally on the rowid ordinals when there are none.  Both
    sides' order columns are re-projected as fresh ``pb_ord__N``
    ordinals; sorting by them equals the unfused ``ORDER BY a.rowid,
    b.rowid`` because each side's ordering totally orders its rows.
    """
    if shared:
        cond = " AND ".join(
            f"a.{quote_identifier(c)} = b.{quote_identifier(c)}"
            for c in shared)
    elif left.ord_rowid and right.ord_rowid:
        cond = (f"a.{quote_identifier(left.order_names[0])} = "
                f"b.{quote_identifier(right.order_names[0])}")
    else:
        raise FusionError(
            "positional join requires rowid-pure operand ordering")
    ords: list[str] = []
    hidden: list[str] = []
    for alias, frag in (("a", left), ("b", right)):
        for name in frag.order_names:
            fresh = f"{ORD_PREFIX}{len(hidden)}"
            hidden.append(fresh)
            ords.append(f"{alias}.{quote_identifier(name)} "
                        f"AS {quote_identifier(fresh)}")
    sql = (f"SELECT {', '.join(items + ords)} "
           f"FROM ({left.sql}) a JOIN ({right.sql}) b ON {cond}")
    return SelectFragment(
        sql, left.params + right.params, tuple(out_cols),
        tuple(hidden), tuple(hidden), from_source=False,
        scan_ordered=False, ord_rowid=False, rescan_cheap=False,
        producer=producer)


def fuse_grouped(grouped: SelectFragment, items: list[str],
                 out_cols: Iterable[ColumnInfo], keys: list[str],
                 producer: str) -> SelectFragment:
    """One ``GROUP BY`` over ``grouped`` computing what a combiner of
    two of its data-set aggregates would join.

    ``items`` are the combiner's select items rendered over the
    aggregates' expressions, ``keys`` the group keys both aggregates
    share.  The join ``a.k = b.k`` never matches a NULL key, so groups
    with one are dropped; both aggregates group on the same keys, so
    the join is 1:1 and the keys order the output as the join's
    ``ORDER BY a.rowid, b.rowid`` does.
    """
    sql = f"SELECT {', '.join(items)} FROM ({grouped.sql}) s"
    if keys:
        cols = [f"s.{quote_identifier(k)}" for k in keys]
        sql += (" WHERE " + " AND ".join(f"{c} IS NOT NULL"
                                         for c in cols)
                + " GROUP BY " + ", ".join(cols))
    return SelectFragment(
        sql, grouped.params, tuple(out_cols), tuple(keys), (),
        from_source=False, scan_ordered=True, ord_rowid=False,
        rescan_cheap=False, producer=producer)


def materialise(ctx: "QueryContext", frag: SelectFragment,
                element: "QueryElement") -> DataVector:
    """Run a fused fragment into the tail element's temp table.

    The single INSERT applies the tail's column affinities — the same
    conversions the unfused per-element tables would have applied —
    and pins insertion order via the fragment's order columns, so the
    resulting table is byte-identical to the unfused one (cache entries
    and sentinel baselines do not record how a vector was computed, so
    this is what keeps them valid).
    """
    table = ctx.temptables.new_table(
        element.name,
        [(c.name, sql_type(c.datatype)) for c in frag.columns])
    n_rows = insert_select(ctx.db, table, frag)
    return DataVector(ctx.db, table, list(frag.columns),
                      from_source=frag.from_source,
                      producer=element.name, n_rows=n_rows)


def ordered_select(frag: SelectFragment) -> str:
    """The SELECT of ``frag``'s visible columns in the fragment's
    order, which :func:`insert_select` materialises."""
    sel = ", ".join(f"s.{quote_identifier(c.name)}"
                    for c in frag.columns)
    sql = f"SELECT {sel} FROM ({frag.sql}) s"
    if frag.order_names:
        sql += " ORDER BY " + ", ".join(
            f"s.{quote_identifier(n)}" for n in frag.order_names)
    return sql


def insert_select(db: "Database", table: str,
                  frag: SelectFragment) -> int:
    """Append ``frag``'s rows to ``table`` (whose columns are the
    fragment's, in order) in the fragment's order; returns the row
    count.  The one statement that materialises a fragment."""
    return db.execute(
        f"INSERT INTO {quote_identifier(table)} {ordered_select(frag)}",
        frag.params)


# =========================================================================
# planning
# =========================================================================

@dataclass
class PushdownPlan:
    """The rewrite decision: which elements fuse into which tails."""

    #: tail element name -> group member names in topological order
    #: (the tail is always the last member); the planner makes groups
    #: of >= 2
    groups: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: member name -> its tail, for every fused member
    member_of: dict[str, str] = field(default_factory=dict)

    @property
    def fused_elements(self) -> int:
        return len(self.member_of)

    @property
    def statements_saved(self) -> int:
        """Temp-table materialisations the plan avoids."""
        return sum(len(m) - 1 for m in self.groups.values())

    def absorbed(self, name: str) -> bool:
        """True for members whose materialisation the tail subsumes."""
        return name in self.member_of and self.member_of[name] != name

    def label(self, tail: str) -> str:
        """The explain annotation, e.g. ``FUSED[a→b→c]``."""
        return "FUSED[" + "→".join(self.groups[tail]) + "]"

    def inputs(self, graph: "QueryGraph", name: str) -> set[str]:
        """The vectors the unit ending at ``name`` reads from outside
        itself: the external inputs of its group, or the element's own
        inputs (interior edges are subsumed by the single statement)."""
        members = self.groups.get(name, (name,))
        return {i for m in members for i in graph.elements[m].inputs
                if i not in members}


def plan_pushdown(graph: "QueryGraph") -> PushdownPlan:
    """Walk the element DAG and mark maximal fusable chains.

    An edge ``producer → consumer`` is absorbed when both ends are
    SQL-expressible (``element.can_fuse()``) and the producer feeds
    only that consumer (no fan-out) or its fan-out is a
    sibling-aggregate diamond (:func:`_sibling_aggregates`).
    Connected components of absorbed edges form groups whose unique
    member with no absorbed outgoing edge is the tail that
    materialises.
    """
    elements = graph.elements
    parent: dict[str, str] = {}

    def find(name: str) -> str:
        while parent.get(name, name) != name:
            parent[name] = parent.get(parent[name], parent[name])
            name = parent[name]
        return name

    absorbed_edges: list[tuple[str, str]] = []
    for name, element in elements.items():
        if not element.can_fuse():
            continue
        consumers = graph.consumers(name)
        if len(consumers) != 1 and not _sibling_aggregates(
                graph, element, consumers):
            continue
        if not all(elements[c].can_fuse() for c in consumers):
            continue
        for consumer in consumers:
            absorbed_edges.append((name, consumer))
            parent[find(name)] = find(consumer)

    roots = {find(name) for edge in absorbed_edges for name in edge}
    members: dict[str, list[str]] = {root: [] for root in roots}
    for element in graph.topological_order():
        root = find(element.name)
        if root in members:
            members[root].append(element.name)

    plan = PushdownPlan()
    absorbed_from = {producer for producer, _ in absorbed_edges}
    for group in members.values():
        if len(group) < 2:  # pragma: no cover - every edge has 2 ends
            continue
        # every absorbed producer feeds only members (one consumer, or
        # both sides of a sibling-aggregate diamond), so the group's
        # unique sink — the one member whose own output edge was NOT
        # absorbed — materialises for the group
        tails = [n for n in group if n not in absorbed_from]
        tail = tails[0] if tails else group[-1]
        plan.groups[tail] = tuple(group)
        for name in group:
            plan.member_of[name] = tail
    return plan


def _sibling_aggregates(graph: "QueryGraph", producer: "QueryElement",
                        consumers: list[str]) -> bool:
    """Whether a fan-out is the diamond one ``GROUP BY`` computes: a
    source read by exactly two SQL data-set aggregates (which group on
    its parameters), each read only by the same two-input combiner.
    Fused, the combiner emits both aggregates over the source's single
    fragment (:func:`fuse_grouped`) instead of joining two."""
    if producer.kind != "source" or len(consumers) != 2:
        return False
    readers = [graph.consumers(c) for c in consumers]
    if readers[0] != readers[1] or len(readers[0]) != 1:
        return False
    combiner = graph.elements[readers[0][0]]
    return (combiner.kind == "combiner" and combiner.can_fuse()
            and sorted(combiner.inputs) == consumers
            and all(graph.elements[c].sql_aggregate() for c in consumers))


# =========================================================================
# execution
# =========================================================================

def build_fragment(ctx: "QueryContext", graph: "QueryGraph",
                   name: str, members: frozenset[str],
                   built: dict[str, SelectFragment] | None = None
                   ) -> SelectFragment:
    """Recursively compose the fragment of ``name``.

    Members recurse; inputs outside the group are already materialised
    vectors and enter as chain-head fragments.  ``built`` holds each
    fragment by name, so one read by two members is built once: a
    source then runs its catalogue statement once, and sibling
    aggregates see the same fragment object and merge.
    """
    built = {} if built is None else built
    frag = built.get(name)
    if frag is None:
        if name in members:
            element = graph.elements[name]
            frag = element.fuse(ctx, [
                build_fragment(ctx, graph, input_name, members, built)
                for input_name in element.inputs])
        else:
            frag = vector_fragment(ctx.vector_of(name))
        built[name] = frag
    return frag


def run_fused_group(ctx: "QueryContext", graph: "QueryGraph",
                    plan: PushdownPlan, tail_name: str,
                    span_attrs: dict | None = None
                    ) -> DataVector | None:
    """Execute one fused group: build the tail fragment, materialise
    it in a single statement, and account it to the tail element.

    On :class:`FusionError` (``pushdown.fallbacks``) a group with a
    fused fan-out materialises its shared producer and runs the rest
    as one group again; any other group runs its members element-wise
    — identical results, just slower.  ``span_attrs`` are extra
    attributes of the element span(s).
    """
    members = plan.groups[tail_name]
    tail = graph.elements[tail_name]
    attrs = span_attrs or {}
    try:
        frag = build_fragment(ctx, graph, tail_name,
                              frozenset(members))
    except FusionError:
        count("pushdown.fallbacks")
        shared = [name for name in members if name != tail_name
                  and len(graph.consumers(name)) > 1]
        vector = None
        for name in shared or members:
            vector = graph.elements[name].execute(ctx, span_attrs=attrs)
        if not shared:
            return vector
        rest = tuple(name for name in members if name not in shared)
        return run_fused_group(
            ctx, graph, PushdownPlan({tail_name: rest},
                                     dict.fromkeys(rest, tail_name)),
            tail_name, span_attrs)

    count("pushdown.groups")
    count("pushdown.fused_elements", len(members))
    count("pushdown.statements_saved", len(members) - 1)
    with maybe_span(tail.name, kind=tail.kind, fused=",".join(members),
                    **attrs) as span:
        vector = materialise(ctx, frag, tail)
        if span is not None:
            span.attributes.update(rows=vector.n_rows,
                                   cols=len(vector.columns))
    ctx.vectors[tail.name] = vector
    return vector
