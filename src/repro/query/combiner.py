"""The combiner element.

Section 3.3.3: "A combiner element is used to merge two input vectors
into one output vector.  All result values of the two input vectors are
passed to the new output vector.  Duplicate input parameters (parameters
that exist in both input vectors) are removed by default.  Combiners are
sometimes required to match output vectors to the requirements of an
operator's input vector."

The merge joins on the shared parameter columns (positionally when there
are none).  Result columns occurring in both inputs are disambiguated by
suffixing the producing element's name — which is what lets two query
branches (e.g. old vs. new I/O technique) be compared side by side.
:meth:`Combiner.fuse` is the only SQL emitter; run on its own, the
combiner is the fused group of one over its two input temp tables.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..db.backend import quote_identifier
from .elements import QueryContext, QueryElement
from .pushdown import SelectFragment, fuse_grouped, fuse_join
from .vectors import ColumnInfo, DataVector

__all__ = ["Combiner"]


def _operand_column(alias: str, name: str) -> str:
    return f"{alias}.{quote_identifier(name)}"


class Combiner(QueryElement):
    """Merges exactly two input vectors into one."""

    kind = "combiner"

    def __init__(self, name: str, inputs: Sequence[str] = (), *,
                 keep_duplicate_parameters: bool = False):
        super().__init__(name, list(inputs))
        self.keep_duplicate_parameters = keep_duplicate_parameters

    def spec(self) -> dict:
        spec = super().spec()
        spec["keep_duplicate_parameters"] = self.keep_duplicate_parameters
        # the disambiguation suffix of duplicate result columns uses the
        # producing elements' names, so they are part of the output shape
        spec["producer_names"] = list(self.inputs)
        return spec

    def _merge_columns(self, left: SelectFragment,
                       right: SelectFragment,
                       render: Callable[[str, str], str] = _operand_column
                       ) -> tuple[list[str], list[ColumnInfo], list[str]]:
        """Section 3.3.3 merge shape over two input fragments: returns
        ``(shared, out_cols, sel)`` where ``shared`` are the join
        parameter names and ``sel`` renders one aliased select item
        per output column, in lockstep with ``out_cols``.  ``render``
        gives the value of an input column (``a`` is left, ``b``
        right); by default the column of that join operand."""
        shared = [p.name for p in left.parameters
                  if right.has_column(p.name)
                  and not right.column(p.name).is_result]

        out_cols: list[ColumnInfo] = list(left.parameters)
        sel: list[str] = [
            f"{render('a', p.name)} AS {quote_identifier(p.name)}"
            for p in left.parameters]
        taken = {c.name for c in out_cols}
        for p in right.parameters:
            if p.name in taken:
                if not self.keep_duplicate_parameters:
                    continue
                original = p.name
                p = p.renamed(self._unique(
                    p.name, right.producer or "b", taken))
                out_cols.append(p)
                sel.append(f"{render('b', original)} "
                           f"AS {quote_identifier(p.name)}")
            else:
                out_cols.append(p)
                taken.add(p.name)
                sel.append(f"{render('b', p.name)} "
                           f"AS {quote_identifier(p.name)}")

        for alias, vector in (("a", left), ("b", right)):
            for c in vector.results:
                original = c.name
                if c.name in taken:
                    c = c.renamed(self._unique(
                        c.name, vector.producer or alias, taken))
                else:
                    taken.add(c.name)
                out_cols.append(c)
                sel.append(f"{render(alias, original)} "
                           f"AS {quote_identifier(c.name)}")
        return shared, out_cols, sel

    def run(self, ctx: QueryContext) -> DataVector:
        self._require_inputs(2, 2)
        return self.run_fused(ctx)

    # -- the SQL emitter (fused groups and groups of one) ------------------

    def can_fuse(self) -> bool:
        return len(self.inputs) == 2

    def fuse(self, ctx: QueryContext, inputs) -> SelectFragment:
        left, right = inputs
        if left.grouped is not None and left.grouped is right.grouped:
            # two data-set aggregates of one fragment: compute both in
            # one GROUP BY over it instead of joining two
            exprs = {alias: {c.name: e for c, e in zip(f.columns, f.exprs)}
                     for alias, f in (("a", left), ("b", right))}
            shared, out_cols, sel = self._merge_columns(
                left, right, lambda alias, name: exprs[alias][name])
            return fuse_grouped(left.grouped, sel, out_cols, shared,
                                self.name)
        shared, out_cols, sel = self._merge_columns(left, right)
        return fuse_join(left, right, sel, out_cols, shared, self.name)

    @staticmethod
    def _unique(name: str, producer: str, taken: set[str]) -> str:
        safe = "".join(ch if ch.isalnum() else "_" for ch in producer)
        candidate = f"{name}_{safe}"
        n = 2
        while candidate in taken:
            candidate = f"{name}_{safe}{n}"
            n += 1
        taken.add(candidate)
        return candidate
