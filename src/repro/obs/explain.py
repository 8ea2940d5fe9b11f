"""EXPLAIN / ANALYZE for query specifications.

The paper analyses its experiment data "through declarative queries"
(Sections 3-4) and justifies the parallel executor by profiling real
query runs (Section 4.3).  This module gives both activities a
human-readable face, the way an SQL EXPLAIN does for a database plan:

* :func:`explain` renders the element DAG of a query as a
  deterministic ASCII plan — one tree per output element, inputs
  indented below their consumers, each node tagged with its element
  kind, operator type / output format / source shape, and its
  scheduling level (the longest path from a source, which is what the
  Section 4.3 level scheduler packs onto cluster nodes);
* given a recorded trace (:func:`~repro.obs.sinks.read_trace`), the
  same plan is *annotated* with measured numbers per element — calls,
  wall and CPU time, rows and transferred bytes, and the cluster-node
  placement taken from the parallel executor's ``node`` spans — the
  EXPLAIN ANALYZE view.

Everything here works on duck-typed query objects (``name``, ``kind``,
``inputs`` and the kind-specific attributes), so this module adds no
import edge from :mod:`repro.obs` to the query layer.
"""

from __future__ import annotations

from .profile import QueryProfile, SpanTotals, rollup
from .spans import ELEMENT_KINDS

__all__ = ["explain"]


def _describe(element) -> str:
    """One-line description of a plan node (kind + specifics)."""
    kind = element.kind
    if kind == "operator":
        op = getattr(element, "op", None)
        return f"[operator {op}]" if op else "[operator]"
    if kind == "output":
        fmt = getattr(element, "format_name", None)
        return f"[output {fmt}]" if fmt else "[output]"
    if kind == "source":
        details = []
        parameters = getattr(element, "parameters", ())
        filters = [p.name for p in parameters
                   if getattr(p, "is_filter", False)]
        dims = [p.name for p in parameters
                if not getattr(p, "is_filter", False)]
        if filters:
            details.append("filter=" + ",".join(filters))
        if dims:
            details.append("dims=" + ",".join(dims))
        results = list(getattr(element, "results", ()))
        if results:
            details.append("results=" + ",".join(results))
        if getattr(element, "runs", None) is not None:
            details.append("runs=filtered")
        return "[source" + ("".join(" " + d for d in details)) + "]"
    return f"[{kind}]"


def explain(query, trace=None, fused=None, cached=False) -> str:
    """Render ``query``'s element DAG as an ASCII plan.

    ``trace`` — a :class:`~repro.obs.sinks.TraceData` or a plain span
    iterable — switches to the ANALYZE form: every plan node gains the
    element's :func:`~repro.obs.profile.rollup` totals, the header gains
    trace totals (including the Section 4.3 source fraction), and
    element spans that match no plan node are listed at the end.

    ``fused`` — a pushdown plan (duck-typed: ``groups``, ``member_of``,
    ``label(tail)``, ``statements_saved``; see
    :class:`repro.query.pushdown.PushdownPlan`, passed in by the caller
    so this module keeps no import edge to the query layer) — annotates
    each fused chain's tail with ``FUSED[a→b→c]`` and its absorbed
    members with the tail that subsumes their materialisation.
    ``cached`` says the plan is the one a run under the query cache
    takes, where no chain fuses; an empty plan then names the cache as
    the reason.

    The plain form depends only on the query specification, so its
    output is byte-for-byte deterministic (golden-file testable).
    """
    graph = query.graph
    levels = graph.levels()
    counts: dict[str, int] = {}
    for element in graph.elements.values():
        counts[element.kind] = counts.get(element.kind, 0) + 1
    n_levels = max(levels.values()) + 1 if levels else 0

    stats: dict[str, SpanTotals] | None = None
    if trace is not None:
        spans = list(getattr(trace, "spans", trace))
        stats = {}
        for (kind, name), st in rollup(spans).items():
            if kind in ELEMENT_KINDS:
                stats.setdefault(name, st)

    lines = [f"QUERY PLAN: {query.name}"]
    lines.append("elements: {} ({}); levels: {}; width: {}".format(
        len(graph.elements),
        ", ".join(f"{counts.get(k, 0)} {k}" for k in
                  ("source", "operator", "combiner", "output")),
        n_levels, graph.width()))
    if stats is not None:
        profile = QueryProfile.from_spans(spans, query.name)
        lines.append(
            "trace: {} element call(s); element time {:.3f}ms; "
            "source fraction {:.1f}%".format(
                sum(s.calls for s in stats.values()),
                profile.total_seconds * 1e3,
                100 * profile.source_fraction()))
    if fused is not None:
        groups = fused.groups
        if groups:
            lines.append(
                "pushdown: {} fused chain(s), {} statement(s) saved"
                .format(len(groups), fused.statements_saved))
        elif cached:
            lines.append("pushdown: no chain fuses under the query cache "
                         "(each miss runs element-wise; --no-cache "
                         "fuses chains)")
        else:
            lines.append("pushdown: no fusable chains")

    expanded: set[str] = set()

    def describe_line(name: str) -> str:
        element = graph.elements[name]
        text = f"{name} {_describe(element)} (level {levels[name]})"
        if fused is not None:
            if name in fused.groups:
                text += "  " + fused.label(name)
            elif name in fused.member_of:
                text += f"  (fused into {fused.member_of[name]})"
        if stats is not None:
            st = stats.get(name)
            text += ("  " + st.annotation() if st is not None
                     else "  (not executed)")
        return text

    def walk(name: str, prefix: str, connector: str,
             child_prefix: str) -> None:
        line = prefix + connector + describe_line(name)
        element = graph.elements[name]
        if element.inputs and name in expanded:
            lines.append(line + "  (shown above)")
            return
        lines.append(line)
        expanded.add(name)
        for i, input_name in enumerate(element.inputs):
            last = i == len(element.inputs) - 1
            walk(input_name, child_prefix,
                 "`- " if last else "+- ",
                 child_prefix + ("   " if last else "|  "))

    # one tree per output, in declaration order; then any elements no
    # output consumes (legal for non-output leaves of a partial query)
    roots = [e.name for e in graph.outputs]
    consumed: set[str] = set()

    def mark(name: str) -> None:
        if name in consumed:
            return
        consumed.add(name)
        for input_name in graph.elements[name].inputs:
            mark(input_name)

    for name in roots:
        mark(name)
    for name, element in graph.elements.items():
        if name not in consumed and not graph.consumers(name):
            roots.append(name)
    for name in roots:
        walk(name, "", "", "")

    if stats is not None:
        extra = sorted(set(stats) - set(graph.elements))
        for name in extra:
            st = stats[name]
            lines.append(f"not in plan: {name} [{st.kind}]  "
                         + st.annotation())
    return "\n".join(lines) + "\n"
