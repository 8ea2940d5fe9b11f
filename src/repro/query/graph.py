"""Query graph: wiring elements into an executable DAG.

Fig. 2 of the paper shows the possible relations: sources feed operators
and combiners, which feed further operators/combiners, which feed
outputs — "Within certain limits, these elements can be arbitrarily
cascaded."  This module validates those limits:

* the graph must be acyclic and every referenced input must exist;
* sources have no inputs, outputs produce no vector (nothing may
  consume an output);
* every output must (transitively) reach a source.

networkx carries the graph structure; it also gives the *levels*
(longest path from a source) that the parallel scheduler of
Section 4.3 uses.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

import networkx as nx

from ..core.errors import QueryError
from .elements import QueryElement
from .outputs import Output
from .source import Source

__all__ = ["QueryGraph"]


class QueryGraph:
    """Validated DAG over a set of named query elements."""

    def __init__(self, elements: Iterable[QueryElement]):
        self.elements: dict[str, QueryElement] = {}
        for element in elements:
            if element.name in self.elements:
                raise QueryError(
                    f"duplicate element name {element.name!r}")
            self.elements[element.name] = element
        self.graph = nx.DiGraph()
        for element in self.elements.values():
            self.graph.add_node(element.name)
        for element in self.elements.values():
            for input_name in element.inputs:
                if input_name not in self.elements:
                    raise QueryError(
                        f"element {element.name!r} references unknown "
                        f"input {input_name!r}")
                producer = self.elements[input_name]
                if isinstance(producer, Output):
                    raise QueryError(
                        f"output element {input_name!r} cannot feed "
                        f"{element.name!r}")
                self.graph.add_edge(input_name, element.name)
        self._validate()
        self._order = [self.elements[name] for name in
                       nx.lexicographical_topological_sort(self.graph)]

    def _validate(self) -> None:
        if not self.elements:
            raise QueryError("query has no elements")
        if not nx.is_directed_acyclic_graph(self.graph):
            cycle = nx.find_cycle(self.graph)
            path = " -> ".join(str(e[0]) for e in cycle)
            raise QueryError(f"query graph has a cycle: {path}")
        sources = {n for n, e in self.elements.items()
                   if isinstance(e, Source)}
        if not sources:
            raise QueryError("query has no source element")
        for name, element in self.elements.items():
            if not isinstance(element, Source) and not element.inputs:
                raise QueryError(
                    f"{element.kind} element {name!r} has no inputs")
            if isinstance(element, Output):
                reachable = nx.ancestors(self.graph, name)
                if not reachable & sources:
                    raise QueryError(
                        f"output element {name!r} is not connected to "
                        "any source")

    # -- structure queries ------------------------------------------------

    @property
    def sources(self) -> list[Source]:
        return [e for e in self.elements.values()
                if isinstance(e, Source)]

    @property
    def outputs(self) -> list[Output]:
        return [e for e in self.elements.values()
                if isinstance(e, Output)]

    def topological_order(self) -> list[QueryElement]:
        """Execution order: inputs before consumers, stable by name."""
        return list(self._order)

    def levels(self) -> dict[str, int]:
        """Longest-path level of each element (sources are level 0).

        Elements on the same level are independent *within a level
        schedule* — the parallelism the paper's Section 4.3 exploits.
        """
        level: dict[str, int] = {}
        for name in nx.topological_sort(self.graph):
            preds = list(self.graph.predecessors(name))
            level[name] = (max(level[p] for p in preds) + 1
                           if preds else 0)
        return level

    def width(self) -> int:
        """Maximum number of elements on one level — the effective
        degree of parallelism of the query ("the number of cluster nodes
        that can be used efficiently is limited to the effective degree
        of parallelism in the query processing")."""
        counts: dict[int, int] = {}
        for lvl in self.levels().values():
            counts[lvl] = counts.get(lvl, 0) + 1
        return max(counts.values())

    def consumers(self, name: str) -> list[str]:
        return sorted(self.graph.successors(name))

    def fingerprints(self, source_extra: Mapping[str, Any] | None = None,
                     per_source: Mapping[str, Mapping[str, Any]]
                     | None = None) -> dict[str, str]:
        """Fingerprint of every element (Merkle-style).

        Each fingerprint hashes the element's own spec with the
        fingerprints of its producers, so one hash addresses a whole
        subgraph.  ``source_extra`` is folded into the fingerprints of
        input-free elements, merged with their own entry of
        ``per_source`` (the incremental engine passes the experiment
        identity and schema counter, and each source's run set), and so
        reaches every downstream fingerprint.
        """
        fps: dict[str, str] = {}
        for element in self.topological_order():
            extra = None
            if not element.inputs:
                extra = {**(source_extra or {}),
                         **(per_source or {}).get(element.name, {})}
            fps[element.name] = element.fingerprint(
                [fps[i] for i in element.inputs], extra)
        return fps

    def __len__(self) -> int:
        return len(self.elements)
