"""The operator element: operations and relations on vector tuples.

Section 3.3.2 defines four operator families:

* **statistical** — ``avg``, ``stddev``, ``variance``, ``count`` (we add
  ``median``), "applied on exactly one input vector";
* **reductions** — ``min``, ``max``, ``prod`` (we add ``sum``),
  applicable "to any number of input vectors";
* **arithmetic** — ``eval`` (arbitrary expressions), ``scale`` and
  ``offset`` (linear functions), any number of inputs;
* **two-vector relations** — ``diff``, ``div`` (subtraction/division)
  and ``percentof``, ``above``, ``below`` (relative comparisons).

and three modes of operation "automatically differentiated by the number
and type of the input vectors and the type of the operator":

1. *data set aggregation* — the input vector "stems from a source
   element": aggregate result values over tuples with identical input
   parameter sets (SQL ``GROUP BY`` over all parameter columns);
2. *full reduction* — a single non-source input vector: "reduce all
   elements of the vector into a single element" (one output row);
3. *element-wise* — more than one input vector: element-wise reduction
   of the vectors into a single output vector (SQL join on the shared
   parameter columns, positional when there are none).

Aggregations, reductions, ``scale``/``offset``, ``norm``, ``convert``
and the two-vector relations execute inside the SQL engine (Section
4.2: "use SQL database functionality for many of the operators, which
results in better performance than to process the data within a
Python script").  Each of these shapes has exactly one SQL emitter, its
``fuse()``, which returns a composable fragment; element-wise ``run()``
is the fused group of one
(:meth:`~repro.query.elements.QueryElement.run_fused`), so a
pushdown-fused chain and the per-element temp-table protocol execute
the same SQL.  ``eval`` and ``filter`` evaluate expressions in numpy,
the multi-input element-wise reduction runs in Python, and a pure-Python
aggregation path (``use_sql=False``) exists for the E8 ablation
benchmark.
"""

from __future__ import annotations

import statistics
from typing import Sequence

import numpy as np

from ..core.datatypes import DataType, sql_type
from ..core.errors import OperatorError, QueryError
from ..core.units import DIMENSIONLESS, Unit
from ..core.variables import ORD_PREFIX
from ..db.backend import quote_identifier
from ..expr import Expression
from ..obs.metrics import count
from .elements import QueryContext, QueryElement
from .pushdown import (FusionError, SelectFragment, fuse_join,
                       materialise, vector_fragment)
from .vectors import ColumnInfo, DataVector

__all__ = ["Operator", "STATISTICAL", "REDUCTIONS", "ARITHMETIC",
           "TWO_VECTOR", "ALL_OPERATORS"]

STATISTICAL = ("avg", "stddev", "variance", "count", "median")
REDUCTIONS = ("min", "max", "prod", "sum")
ARITHMETIC = ("eval", "scale", "offset")
TWO_VECTOR = ("diff", "div", "percentof", "above", "below")
#: transforms beyond the paper's list (its Section 6 plans "more
#: operators"): row filtering by expression, normalisation, and
#: unit conversion
TRANSFORMS = ("filter", "norm", "convert")
ALL_OPERATORS = (STATISTICAL + REDUCTIONS + ARITHMETIC + TWO_VECTOR
                 + TRANSFORMS)

#: SQL aggregate expression per operator (column substituted for {c})
_SQL_AGG = {
    "avg": "AVG({c})",
    "stddev": "pb_stddev({c})",
    "variance": "pb_variance({c})",
    "count": "COUNT({c})",
    "median": "pb_median({c})",
    "min": "MIN({c})",
    "max": "MAX({c})",
    "prod": "pb_product({c})",
    "sum": "SUM({c})",
}

#: numpy reduction per operator for the element-wise and Python paths
_NP_AGG = {
    "avg": lambda a: float(np.mean(a)),
    # sample stddev/variance of a single value is NULL (PostgreSQL
    # semantics, matched by the pb_* SQL aggregates), not 0.0
    "stddev": lambda a: float(np.std(a, ddof=1)) if len(a) > 1 else None,
    "variance": lambda a: (float(np.var(a, ddof=1))
                           if len(a) > 1 else None),
    "count": lambda a: int(len(a)),
    "median": lambda a: float(np.median(a)),
    "min": lambda a: float(np.min(a)),
    "max": lambda a: float(np.max(a)),
    "prod": lambda a: float(np.prod(a)),
    "sum": lambda a: float(np.sum(a)),
}

#: SQL expression for two-vector relations ({a}: left, {b}: right)
_SQL_BINARY = {
    "diff": "({a} - {b})",
    "div": "(CAST({a} AS REAL) / {b})",
    "percentof": "(100.0 * {a} / {b})",
    "above": "(100.0 * ({a} - {b}) / {b})",
    "below": "(100.0 * ({b} - {a}) / {b})",
}

_PERCENT_UNIT = Unit.base("percent")


class Operator(QueryElement):
    """One ``<operator>`` element.

    Parameters
    ----------
    name:
        Element name within the query.
    op:
        Operator type (one of :data:`ALL_OPERATORS`).
    inputs:
        Names of producing elements.
    expression:
        For ``eval`` (arithmetic over the input result column names)
        and ``filter`` (rows are kept where it evaluates truthy).
    factor / summand:
        For ``scale`` / ``offset``.
    mode:
        For ``norm``: divide each numeric result column by its ``max``
        (default), ``sum``, ``min`` or ``first`` value.
    unit:
        For ``convert``: target unit (a :class:`Unit` or its textual
        form, e.g. ``"MB/s"``); compatible result columns are converted,
        others pass through unchanged.
    use_sql:
        Process in the SQL engine where possible (default); the Python
        path exists for the SQL-vs-Python ablation.
    """

    kind = "operator"

    def __init__(self, name: str, op: str,
                 inputs: Sequence[str] = (), *,
                 expression: str | None = None,
                 factor: float = 1.0,
                 summand: float = 0.0,
                 mode: str = "max",
                 unit: "Unit | str | None" = None,
                 result_name: str | None = None,
                 use_sql: bool = True):
        super().__init__(name, list(inputs))
        if op not in ALL_OPERATORS:
            raise OperatorError(
                f"unknown operator type {op!r} "
                f"(known: {', '.join(ALL_OPERATORS)})")
        self.op = op
        self.expression = Expression(expression) if expression else None
        if op in ("eval", "filter") and self.expression is None:
            raise OperatorError(
                f"operator {name!r}: {op} needs an expression")
        self.factor = float(factor)
        self.summand = float(summand)
        if mode not in ("max", "min", "sum", "first"):
            raise OperatorError(
                f"operator {name!r}: unknown norm mode {mode!r}")
        self.mode = mode
        if op == "convert":
            if unit is None:
                raise OperatorError(
                    f"operator {name!r}: convert needs a target unit")
            self.unit = Unit.parse(unit) if isinstance(unit, str) \
                else unit
        else:
            self.unit = None
        if result_name is not None and result_name.startswith(ORD_PREFIX):
            raise OperatorError(
                f"operator {name!r}: result name {result_name!r} uses "
                f"the reserved {ORD_PREFIX}* prefix")
        self.result_name = result_name
        self.use_sql = use_sql

    # -- fingerprinting ----------------------------------------------------

    def spec(self) -> dict:
        from ..db.schema import _unit_to_json
        spec = super().spec()
        spec.update({
            "op": self.op,
            "expression": (None if self.expression is None
                           else self.expression.source),
            "factor": self.factor,
            "summand": self.summand,
            "mode": self.mode,
            "unit": (None if self.unit is None
                     else _unit_to_json(self.unit)),
            "result_name": self.result_name,
            "use_sql": self.use_sql,
        })
        return spec

    # -- mode dispatch --------------------------------------------------

    def run(self, ctx: QueryContext) -> DataVector:
        if self.op in STATISTICAL or self.op in TRANSFORMS:
            self._require_inputs(1, 1)
        elif self.op in TWO_VECTOR:
            self._require_inputs(2, 2)
        else:
            self._require_inputs(1)
        vectors = self.input_vectors(ctx)
        if self.op == "eval":
            return self._eval(ctx, vectors)
        if self.op == "filter":
            return self._filter(ctx, vectors[0])
        if self.op in ("scale", "offset") and len(vectors) > 1:
            # several inputs: concatenate the transformed vectors
            return _concat(ctx, [
                materialise(ctx, self._fuse_linear(vector_fragment(v)),
                            self) for v in vectors], self.name)
        if self.op in _SQL_AGG:  # statistical / reductions
            if len(vectors) > 1:
                return self._elementwise_reduce(ctx, vectors)
            if not self.use_sql:
                return self._reduce_python(ctx, vectors[0])
        return self.run_fused(ctx)

    # -- output-column helpers ---------------------------------------------

    def _agg_column(self, col: ColumnInfo) -> ColumnInfo:
        synopsis = f"{self.op} of {col.synopsis or col.name}"
        if self.op == "count":
            return ColumnInfo(col.name, DataType.INTEGER, DIMENSIONLESS,
                              synopsis, is_result=True)
        datatype = (DataType.FLOAT if self.op in
                    ("avg", "stddev", "variance", "median")
                    else col.datatype)
        return ColumnInfo(col.name, datatype, col.unit, synopsis,
                          is_result=True)

    @staticmethod
    def _numeric_results(vector: DataVector,
                         who: str) -> list[ColumnInfo]:
        cols = [c for c in vector.results if c.datatype.is_numeric]
        if not cols:
            raise OperatorError(
                f"{who}: input vector of {vector.producer!r} has no "
                "numeric result columns")
        return cols

    # -- modes 1 and 2 in Python (the SQL path is fuse()) ------------------

    def _reduce_python(self, ctx: QueryContext,
                       vector: DataVector) -> DataVector:
        """Pure-Python data set aggregation (source input) or full
        reduction (any other input): the E8 ablation reference path."""
        results = self._numeric_results(vector, f"operator {self.name!r}")
        group = vector.parameters if vector.from_source else []
        out_cols = list(group) + [self._agg_column(c) for c in results]
        table = ctx.temptables.new_table(
            self.name, [(c.name, sql_type(c.datatype)) for c in out_cols])
        if vector.from_source:
            rows = self._aggregate_rows(vector, group, results)
        else:
            row = []
            for c in results:
                arr = vector.array(c.name)
                arr = arr[~np.isnan(arr)]
                row.append(None if arr.size == 0
                           else _NP_AGG[self.op](arr))
            rows = [row]
        if rows:
            ctx.db.insert_rows(table, [c.name for c in out_cols], rows)
        return DataVector(ctx.db, table, out_cols, n_rows=len(rows),
                          producer=self.name)

    def _aggregate_rows(self, vector: DataVector, group: list[ColumnInfo],
                        results: list[ColumnInfo]) -> list[list]:
        """Aggregate result values over identical parameter sets."""
        groups: dict[tuple, list[list[float]]] = {}
        order: list[tuple] = []
        gnames = [c.name for c in group]
        rnames = [c.name for c in results]
        for row in vector.dicts():
            key = tuple(row[g] for g in gnames)
            if key not in groups:
                groups[key] = [[] for _ in rnames]
                order.append(key)
            for i, r in enumerate(rnames):
                if row[r] is not None:
                    groups[key][i].append(float(row[r]))
        out_rows = []
        for key in order:
            aggs = []
            for values in groups[key]:
                if not values:
                    aggs.append(None)
                elif self.op == "stddev":
                    aggs.append(statistics.stdev(values)
                                if len(values) > 1 else None)
                elif self.op == "variance":
                    aggs.append(statistics.variance(values)
                                if len(values) > 1 else None)
                else:
                    aggs.append(_NP_AGG[self.op](np.asarray(values)))
            out_rows.append(list(key) + aggs)
        return out_rows

    # -- mode 3: element-wise reduction over several vectors -------------------

    def _elementwise_reduce(self, ctx: QueryContext,
                            vectors: list[DataVector]) -> DataVector:
        """Combine N vectors element-wise (e.g. max over branches)."""
        joined, params, result_sets = _join(ctx, vectors, self.name)
        n_results = min(len(rs) for rs in result_sets)
        if n_results == 0:
            raise OperatorError(
                f"operator {self.name!r}: an input vector has no "
                "numeric result columns")
        base = result_sets[0][:n_results]
        out_cols = list(params) + [self._agg_column(c) for c in base]
        table = ctx.temptables.new_table(
            self.name, [(c.name, sql_type(c.datatype)) for c in out_cols])
        names = [c.name for c in out_cols]
        rows = []
        for jrow in joined:
            out = list(jrow[:len(params)])
            for i in range(n_results):
                vals = [jrow[len(params) + v * n_results + i]
                        for v in range(len(vectors))]
                vals = [v for v in vals if v is not None]
                out.append(None if not vals
                           else _NP_AGG[self.op](np.asarray(
                               [float(v) for v in vals])))
            rows.append(out)
        if rows:
            ctx.db.insert_rows(table, names, rows)
        return DataVector(ctx.db, table, out_cols, n_rows=len(rows),
                          producer=self.name)

    # -- arithmetic: eval ------------------------------------------------------

    def _eval(self, ctx: QueryContext,
              vectors: list[DataVector]) -> DataVector:
        """Arbitrary expression over the result columns of the (joined)
        input vectors, evaluated vectorised in numpy."""
        assert self.expression is not None
        joined, params, result_sets = _join(ctx, vectors, self.name)
        env: dict[str, np.ndarray] = {}
        offset = len(params)
        col_infos: dict[str, ColumnInfo] = {}
        for rs in result_sets:
            for c in rs:
                if c.name not in env:
                    idx = offset
                    env[c.name] = np.array(
                        [np.nan if row[idx] is None else float(row[idx])
                         for row in joined])
                    col_infos[c.name] = c
                offset += 1
        # parameters are also usable in expressions (e.g. per-byte rates)
        for i, p in enumerate(params):
            if p.datatype.is_numeric and p.name not in env:
                env[p.name] = np.array(
                    [np.nan if row[i] is None else float(row[i])
                     for row in joined])
        missing = self.expression.variables - env.keys()
        if missing:
            raise OperatorError(
                f"operator {self.name!r}: expression references unknown "
                f"columns: {', '.join(sorted(missing))}")
        n = len(joined)
        values = self.expression(env) if n else np.array([])
        values = np.broadcast_to(np.asarray(values, dtype=float),
                                 (n,)).tolist() if n else []
        name = self.result_name or "eval"
        out_cols = list(params) + [
            ColumnInfo(name, DataType.FLOAT, DIMENSIONLESS,
                       f"eval({self.expression.source})", is_result=True)]
        table = ctx.temptables.new_table(
            self.name, [(c.name, sql_type(c.datatype)) for c in out_cols])
        rows = [list(jrow[:len(params)]) + [values[i]]
                for i, jrow in enumerate(joined)]
        if rows:
            ctx.db.insert_rows(table, [c.name for c in out_cols], rows)
        return DataVector(ctx.db, table, out_cols, n_rows=len(rows),
                          producer=self.name)

    # -- transforms: filter (norm and convert are SQL, see fuse()) --------

    def _filter(self, ctx: QueryContext,
                vector: DataVector) -> DataVector:
        """Keep rows where the expression evaluates truthy.

        All columns (parameters and results) of the input pass through
        unchanged; the expression may reference any numeric column.
        """
        assert self.expression is not None
        out_cols = list(vector.columns)
        table = ctx.temptables.new_table(
            self.name, [(c.name, sql_type(c.datatype))
                        for c in out_cols])
        rows = vector.rows()
        env: dict[str, np.ndarray] = {}
        for i, c in enumerate(vector.columns):
            if c.datatype.is_numeric:
                env[c.name] = np.array(
                    [np.nan if row[i] is None else float(row[i])
                     for row in rows])
        missing = self.expression.variables - env.keys()
        if missing:
            raise OperatorError(
                f"operator {self.name!r}: filter expression references "
                f"unknown or non-numeric columns: "
                + ", ".join(sorted(missing)))
        kept = []
        if rows:
            keep = np.asarray(self.expression(env), dtype=bool)
            keep = np.broadcast_to(keep, (len(rows),))
            kept = [list(row) for row, k in zip(rows, keep) if k]
        if kept:
            ctx.db.insert_rows(table, [c.name for c in out_cols], kept)
        return DataVector(ctx.db, table, out_cols, n_rows=len(kept),
                          from_source=vector.from_source,
                          producer=self.name)

    # -- the SQL emitter (fused groups and groups of one) ------------------

    def can_fuse(self) -> bool:
        """SQL-expressible operator shapes: everything the SQL engine
        already handles except expression evaluation (``eval`` and
        ``filter`` run in numpy) and the multi-input element-wise
        mode (Python)."""
        if not self.use_sql or self.op in ("eval", "filter"):
            return False
        if self.op in TWO_VECTOR:
            return len(self.inputs) == 2
        return len(self.inputs) == 1

    def sql_aggregate(self) -> bool:
        return (self.use_sql and self.op in _SQL_AGG
                and len(self.inputs) == 1)

    def fuse(self, ctx: QueryContext,
             inputs: Sequence[SelectFragment]) -> SelectFragment:
        frags = list(inputs)
        if self.op in TWO_VECTOR:
            return self._fuse_binary(frags[0], frags[1])
        if self.op in ("scale", "offset"):
            return self._fuse_linear(frags[0])
        if self.op == "norm":
            return self._fuse_norm(ctx, frags[0])
        if self.op == "convert":
            return self._fuse_convert(frags[0])
        # statistical / reductions: a source input is aggregated per
        # parameter set, any other input reduced to one row
        if frags[0].from_source:
            return self._fuse_aggregate(frags[0])
        return self._fuse_full_reduce(frags[0])

    def _require_scan_ordered(self, frag: SelectFragment) -> None:
        """Aggregates step their input in emission order, and float
        aggregation (SUM/AVG/pb_stddev/...) is not associative — the
        fused statement must therefore scan rows in exactly the rowid
        order the unfused temp table would have, or the result can
        differ in the last bits.  Fragments that only promise a
        *sortable* order (joins) fall back to materialisation."""
        if not frag.scan_ordered:
            raise FusionError(
                f"operator {self.name!r}: cannot fuse an "
                "order-sensitive aggregate over a re-ordered input")

    def _fuse_aggregate(self, frag: SelectFragment) -> SelectFragment:
        self._require_scan_ordered(frag)
        results = self._numeric_results(frag, f"operator {self.name!r}")
        group = frag.parameters
        out_cols = [*group, *(self._agg_column(c) for c in results)]
        exprs = [f"s.{quote_identifier(c.name)}" for c in group]
        exprs += [_SQL_AGG[self.op].format(
                      c=f"s.{quote_identifier(c.name)}")
                  for c in results]
        sel = [f"{expr} AS {quote_identifier(c.name)}"
               for expr, c in zip(exprs, out_cols)]
        sql = (f"SELECT {', '.join(sel)} FROM ({frag.sql}) s")
        if group:
            sql += " GROUP BY " + ", ".join(
                f"s.{quote_identifier(c.name)}" for c in group)
        # group keys are unique, so they totally order the output; both
        # backends also *emit* grouped rows in that order (a derived
        # table has no index for SQLite to walk), hence scan_ordered
        return SelectFragment(
            sql, frag.params, tuple(out_cols),
            tuple(c.name for c in group), (), from_source=False,
            scan_ordered=True, ord_rowid=False, rescan_cheap=False,
            producer=self.name, grouped=frag, exprs=tuple(exprs))

    def _fuse_full_reduce(self, frag: SelectFragment) -> SelectFragment:
        self._require_scan_ordered(frag)
        results = self._numeric_results(frag, f"operator {self.name!r}")
        out_cols = [self._agg_column(c) for c in results]
        sel = [_SQL_AGG[self.op].format(
                   c=f"s.{quote_identifier(c.name)}")
               + f" AS {quote_identifier(c.name)}" for c in results]
        return SelectFragment(
            f"SELECT {', '.join(sel)} FROM ({frag.sql}) s",
            frag.params, tuple(out_cols), (), (), from_source=False,
            scan_ordered=True, ord_rowid=False, rescan_cheap=False,
            producer=self.name)

    def _row_preserving(self, frag: SelectFragment, sel: list[str],
                        out_cols: list[ColumnInfo],
                        params: tuple | None = None) -> SelectFragment:
        """Wrap a row-preserving select list over ``frag``: the hidden
        order ordinals ride along (parameters are already projected by
        name), so the input's ordering contract carries over as-is."""
        sel = sel + [f"s.{quote_identifier(h)} AS {quote_identifier(h)}"
                     for h in frag.hidden]
        return SelectFragment(
            f"SELECT {', '.join(sel)} FROM ({frag.sql}) s",
            frag.params if params is None else params,
            tuple(out_cols), frag.order_names, frag.hidden,
            from_source=False, scan_ordered=frag.scan_ordered,
            ord_rowid=frag.ord_rowid, rescan_cheap=frag.rescan_cheap,
            producer=self.name)

    def _fuse_linear(self, frag: SelectFragment) -> SelectFragment:
        results = self._numeric_results(frag, f"operator {self.name!r}")
        out_cols = list(frag.parameters) + [
            ColumnInfo(c.name, DataType.FLOAT, c.unit,
                       f"{self.op} of {c.synopsis or c.name}",
                       is_result=True)
            for c in results]
        sel = [f"s.{quote_identifier(c.name)} "
               f"AS {quote_identifier(c.name)}"
               for c in frag.parameters]
        for c in results:
            col = f"s.{quote_identifier(c.name)}"
            expr = (f"({col} * {self.factor})" if self.op == "scale"
                    else f"({col} + {self.summand})")
            sel.append(f"{expr} AS {quote_identifier(c.name)}")
        return self._row_preserving(frag, sel, out_cols)

    def _fuse_norm(self, ctx: QueryContext,
                   frag: SelectFragment) -> SelectFragment:
        if not frag.rescan_cheap:
            # norm probes its input once per result column for the
            # denominator and then again in the final INSERT; rather
            # than re-running an aggregation/join fragment each time,
            # pin it to a seam table once and normalise over the scan
            frag = vector_fragment(materialise(ctx, frag, self))
            count("pushdown.seams")
        if self.mode == "sum" and not frag.scan_ordered:
            raise FusionError(
                f"operator {self.name!r}: sum-normalisation over a "
                "re-ordered input is order-sensitive")
        results = self._numeric_results(frag, f"operator {self.name!r}")
        out_cols = list(frag.parameters) + [
            ColumnInfo(c.name, DataType.FLOAT, DIMENSIONLESS,
                       f"{c.synopsis or c.name} (normalised to "
                       f"{self.mode})", is_result=True)
            for c in results]
        order = ", ".join(
            [f"s.{quote_identifier(p.name)}" for p in frag.parameters]
            + [f"s.{quote_identifier(n)}" for n in frag.order_names])
        sel = [f"s.{quote_identifier(p.name)} "
               f"AS {quote_identifier(p.name)}"
               for p in frag.parameters]
        denoms: list[float] = []
        for c in results:
            denoms.append(self._norm_denominator(ctx.db, frag, c.name,
                                                 order))
            sel.append(f"(CAST(s.{quote_identifier(c.name)} AS REAL) "
                       f"/ ?) AS {quote_identifier(c.name)}")
        # the ?s in the select list come textually before the ones
        # inside the FROM subquery — parameter order must match
        return self._row_preserving(frag, sel, out_cols,
                                    tuple(denoms) + frag.params)

    def _norm_denominator(self, db, frag: SelectFragment, column: str,
                          order: str) -> float:
        """The normalisation divisor of one column, computed eagerly.

        Eager evaluation is what lets a zero or NULL divisor (SQLite
        maps division by zero to NULL) raise here, naming element and
        column, instead of silently filling the output vector with
        NULL rows.  ``first`` is the first row in parameter, then
        insertion order.
        """
        col = f"s.{quote_identifier(column)}"
        if self.mode == "first":
            sql = f"SELECT {col} FROM ({frag.sql}) s"
            if order:
                sql += f" ORDER BY {order}"
            sql += " LIMIT 1"
        else:
            agg = {"max": "MAX", "min": "MIN", "sum": "SUM"}[self.mode]
            sql = f"SELECT {agg}({col}) FROM ({frag.sql}) s"
        row = db.fetchone(sql, frag.params)
        value = row[0] if row else None
        if value is None or float(value) == 0.0:
            raise QueryError(
                f"operator {self.name!r}: cannot normalise column "
                f"{column!r} by {self.mode}: denominator is "
                + ("NULL" if value is None else "0"))
        return float(value)

    def _fuse_convert(self, frag: SelectFragment) -> SelectFragment:
        assert self.unit is not None
        out_cols: list[ColumnInfo] = list(frag.parameters)
        sel = [f"s.{quote_identifier(p.name)} "
               f"AS {quote_identifier(p.name)}"
               for p in frag.parameters]
        converted = 0
        for c in frag.results:
            col = f"s.{quote_identifier(c.name)}"
            if c.datatype.is_numeric and c.unit.is_compatible(
                    self.unit):
                factor = c.unit.conversion_factor(self.unit)
                out_cols.append(ColumnInfo(
                    c.name, DataType.FLOAT, self.unit, c.synopsis,
                    is_result=True))
                sel.append(f"({col} * {factor!r}) "
                           f"AS {quote_identifier(c.name)}")
                converted += 1
            else:
                out_cols.append(c)
                sel.append(f"{col} AS {quote_identifier(c.name)}")
        if not converted:
            raise OperatorError(
                f"operator {self.name!r}: no result column of "
                f"{frag.producer!r} is compatible with unit "
                f"{self.unit.symbol!r}")
        return self._row_preserving(frag, sel, out_cols)

    def _fuse_binary(self, left: SelectFragment,
                     right: SelectFragment) -> SelectFragment:
        lres = self._numeric_results(left, f"operator {self.name!r}")
        rres = self._numeric_results(right, f"operator {self.name!r}")
        n = min(len(lres), len(rres))
        lres, rres = lres[:n], rres[:n]
        common = [p.name for p in left.parameters
                  if right.has_column(p.name)
                  and not right.column(p.name).is_result]
        # diff keeps the input unit; ratios are plain or percentages
        unit = {"diff": None, "div": DIMENSIONLESS}.get(self.op,
                                                       _PERCENT_UNIT)
        out_cols = list(left.parameters) + [
            ColumnInfo(c.name, DataType.FLOAT,
                       c.unit if unit is None else unit,
                       f"{self.op} of {c.synopsis or c.name}",
                       is_result=True)
            for c in lres]
        items = [f"a.{quote_identifier(p.name)} "
                 f"AS {quote_identifier(p.name)}"
                 for p in left.parameters]
        for lc, rc in zip(lres, rres):
            expr = _SQL_BINARY[self.op].format(
                a=f"a.{quote_identifier(lc.name)}",
                b=f"b.{quote_identifier(rc.name)}")
            items.append(f"{expr} AS {quote_identifier(lc.name)}")
        return fuse_join(left, right, items, out_cols, common,
                         self.name)


# -- shared vector joining --------------------------------------------------


def _join(ctx: QueryContext, vectors: list[DataVector], who: str
          ) -> tuple[list[tuple], list[ColumnInfo],
                     list[list[ColumnInfo]]]:
    """Join N vectors on their shared parameter columns.

    Returns ``(rows, params, result_sets)`` where every row is the tuple
    of the base vector's parameter values followed by each vector's
    numeric result values in order.  With no shared parameters the join
    is positional.
    """
    base = vectors[0]
    params = list(base.parameters)
    result_sets = [[c for c in v.results if c.datatype.is_numeric]
                   for v in vectors]
    if len(vectors) == 1:
        names = ([p.name for p in params]
                 + [c.name for c in result_sets[0]])
        cols = ", ".join(quote_identifier(n) for n in names)
        rows = ctx.db.fetchall(
            f"SELECT {cols} FROM {quote_identifier(base.table)}")
        return rows, params, result_sets

    sel = [f"t0.{quote_identifier(p.name)}" for p in params]
    for i, rs in enumerate(result_sets):
        sel.extend(f"t{i}.{quote_identifier(c.name)}" for c in rs)
    sql = (f"SELECT {', '.join(sel)} "
           f"FROM {quote_identifier(base.table)} t0")
    for i, v in enumerate(vectors[1:], start=1):
        shared = [p.name for p in params if v.has_column(p.name)
                  and not v.column(p.name).is_result]
        if shared:
            cond = " AND ".join(
                f"t0.{quote_identifier(c)} = t{i}.{quote_identifier(c)}"
                for c in shared)
        else:
            cond = f"t0.rowid = t{i}.rowid"
        sql += f" JOIN {quote_identifier(v.table)} t{i} ON {cond}"
    # deterministic output for duplicate join keys (planner-independent)
    sql += " ORDER BY " + ", ".join(
        f"t{i}.rowid" for i in range(len(vectors)))
    return ctx.db.fetchall(sql), params, result_sets


def _concat(ctx: QueryContext, vectors: list[DataVector],
            who: str) -> DataVector:
    """Concatenate vectors with identical column layouts (UNION ALL)."""
    base = vectors[0]
    names = base.column_names
    for v in vectors[1:]:
        if v.column_names != names:
            raise QueryError(
                f"{who}: cannot concatenate vectors with different "
                f"columns ({names} vs {v.column_names})")
    table = ctx.temptables.new_table(
        who, [(c.name, sql_type(c.datatype)) for c in base.columns])
    cols = ", ".join(quote_identifier(n) for n in names)
    union = " UNION ALL ".join(
        f"SELECT {cols} FROM {quote_identifier(v.table)}"
        for v in vectors)
    n_rows = ctx.db.execute(
        f"INSERT INTO {quote_identifier(table)} {union}")
    return DataVector(ctx.db, table, base.columns, n_rows=n_rows,
                      producer=who)
