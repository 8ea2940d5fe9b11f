"""Query element base class and execution context.

Section 3.3 / Fig. 2: a query wires instances of four element kinds —
*source*, *operator*, *combiner*, *output* — by "assigning the output of
one element to be the input of another one".  Section 4.1: all element
kinds are "mapped onto respective class implementations based on a
common base class".
"""

from __future__ import annotations

import abc
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..core.errors import QueryError
from ..core.experiment import Experiment
from ..db.backend import Database
from ..db.temptables import TempTableManager
from ..obs.tracer import maybe_span
from .pushdown import (FusionError, SelectFragment, materialise,
                       vector_fragment)
from .vectors import DataVector

__all__ = ["QueryContext", "QueryElement"]


@dataclass
class QueryContext:
    """Everything an element needs while executing.

    ``db`` is the database holding the temp tables — in the serial
    engine it is the experiment's own database (exactly the paper's
    setup); the parallel executor points elements at per-node databases
    instead.
    """

    experiment: Experiment
    db: Database
    temptables: TempTableManager
    #: output vectors of already-executed elements, by element name
    vectors: dict[str, DataVector] = field(default_factory=dict)

    def vector_of(self, element_name: str) -> DataVector:
        try:
            return self.vectors[element_name]
        except KeyError:
            raise QueryError(
                f"element {element_name!r} has not produced a vector yet "
                "(is the query graph wired correctly?)") from None


class QueryElement(abc.ABC):
    """Base class of source, operator, combiner and output elements.

    ``name`` identifies the element inside its query; ``inputs`` holds
    the names of the elements whose output vectors this element
    consumes (empty for sources).
    """

    #: subclass tag used by the XML parser and progress display
    kind: str = "element"
    #: whether the incremental engine may cache this element's output
    #: vector (output elements render artefacts instead and always run)
    cacheable: bool = True

    def __init__(self, name: str, inputs: list[str] | None = None):
        if not name:
            raise QueryError("query element needs a non-empty name")
        self.name = name
        self.inputs: list[str] = list(inputs or [])

    @abc.abstractmethod
    def run(self, ctx: QueryContext) -> DataVector | None:
        """Produce this element's output vector (or, for output
        elements, a rendered artefact registered on the query)."""

    # -- SQL pushdown ------------------------------------------------------

    def can_fuse(self) -> bool:
        """Whether the pushdown planner may absorb this element into a
        multi-element fused statement; everything else keeps the
        paper's temp-table protocol.  Structural only — shape
        problems discovered while fusing raise ``FusionError`` from
        :meth:`fuse` instead, and the group falls back."""
        return False

    def sql_aggregate(self) -> bool:
        """Whether this element is a SQL aggregate over one input —
        over a source, a ``GROUP BY`` of the source's parameters; the
        planner fuses two such siblings of one source that a combiner
        joins into a single statement."""
        return False

    def fuse(self, ctx: QueryContext, inputs: Sequence[SelectFragment]
             ) -> SelectFragment:
        """Return this element's output as a fragment over the given
        input fragments instead of materialising it (see
        :mod:`repro.query.pushdown`).  The element's only SQL
        emitter: element-wise execution goes through it as well
        (:meth:`run_fused`)."""
        raise FusionError(
            f"{self.kind} element {self.name!r} cannot join a fused "
            "statement")

    def run_fused(self, ctx: QueryContext) -> DataVector:
        """Element-wise execution as a fused group of one: scan the
        input temp tables and materialise :meth:`fuse` into this
        element's own temp table — one ``CREATE`` and one ``INSERT``,
        as in the Section 4.2 protocol.  Scan fragments satisfy every
        ordering precondition of ``fuse()``, so this never falls
        back."""
        return materialise(ctx, self.fuse(
            ctx, [vector_fragment(v) for v in self.input_vectors(ctx)]),
            self)

    # -- fingerprinting ----------------------------------------------------

    def spec(self) -> dict[str, Any]:
        """JSON-able description of this element's own configuration.

        Subclasses extend the base dict with every attribute that
        influences their output vector — the foundation of the
        incremental engine's cache keys.  Two elements with
        equal specs and equal producers compute the same thing.
        """
        return {"type": type(self).__name__, "kind": self.kind,
                "name": self.name}

    def fingerprint(self, producers: Sequence[str] = (),
                    extra: Mapping[str, Any] | None = None) -> str:
        """Stable address of this element's computation.

        A SHA-256 over the element's own :meth:`spec` combined with the
        fingerprints of its producers (Merkle-style — one hash
        addresses the whole subgraph that feeds this element).
        ``extra`` folds additional state into the hash; the incremental
        engine passes the experiment identity, schema counter and run
        set for source elements.
        """
        payload: dict[str, Any] = {"spec": self.spec(),
                                   "producers": list(producers)}
        if extra:
            payload["extra"] = dict(extra)
        blob = json.dumps(payload, sort_keys=True,
                          separators=(",", ":"), default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def execute(self, ctx: QueryContext, *,
                span_attrs: Mapping[str, Any] | None = None
                ) -> DataVector | None:
        """Run and store the vector in the context.

        When a tracer is active, the execution is recorded as a span of
        this element's kind carrying row/column counters — the one
        record of the run, and the unit the Section 4.3
        source-fraction profile is computed from.  ``span_attrs`` adds
        extra span attributes (the incremental engine marks executed
        elements with ``cache="miss"``).
        """
        with maybe_span(self.name, kind=self.kind,
                        **(span_attrs or {})) as span:
            vector = self.run(ctx)
            if span is not None and vector is not None:
                span.attributes.update(rows=vector.n_rows,
                                       cols=len(vector.columns))
        if vector is not None:
            ctx.vectors[self.name] = vector
        return vector

    def input_vectors(self, ctx: QueryContext) -> list[DataVector]:
        return [ctx.vector_of(name) for name in self.inputs]

    def _require_inputs(self, n_min: int, n_max: int | None = None) -> None:
        n = len(self.inputs)
        if n < n_min or (n_max is not None and n > n_max):
            span = (f"exactly {n_min}" if n_max == n_min
                    else f"between {n_min} and {n_max}"
                    if n_max is not None else f"at least {n_min}")
            raise QueryError(
                f"{self.kind} element {self.name!r} needs {span} input "
                f"element(s), got {n}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}({self.name!r}, "
                f"inputs={self.inputs})")
