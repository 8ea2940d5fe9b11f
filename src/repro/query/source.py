"""The source element: retrieving data from the experiment database.

Section 3.3.1: "They retrieve data from the database based on limiting
properties of zero or more input parameters or the time stamp or index
of a run, all given by *parameter* and *run* elements of the query
specification.  The output of a source element is a vector of data
tuples which match the specified criteria.  Each data tuple consists of
the input parameters by which the database access was filtered and the
result values that were specified in the source definition."

A :class:`ParameterSpec` with a value filters; one without a value only
adds the parameter as an output dimension (needed for parameter sweeps).
Filters on once-occurrence parameters restrict which *runs* contribute;
filters on multiple-occurrence parameters restrict *data sets* within
each run.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Any, NamedTuple, Sequence

from ..core.datatypes import DataType, coerce, sql_type
from ..core.errors import DataTypeError, QueryError
from ..core.units import DIMENSIONLESS
from ..core.variables import ORD_PREFIX, Occurrence
from ..db.backend import quote_identifier
from ..db.schema import _encode_value  # shared cell encoding
from .elements import QueryContext, QueryElement
from .pushdown import FusionError, SelectFragment
from .vectors import ColumnInfo, DataVector

__all__ = ["ParameterSpec", "RunFilter", "Source", "MAX_COMPOUND_OPERANDS"]

#: SQLite's default SQLITE_MAX_COMPOUND_SELECT: a fused source unions
#: one operand per matching run, so beyond this it runs unfused, and a
#: cache store appends its runs in statements of at most this many
MAX_COMPOUND_OPERANDS = 500

_OPS = {"==": "=", "=": "=", "!=": "<>", "<>": "<>",
        "<": "<", "<=": "<=", ">": ">", ">=": ">=", "like": "LIKE"}


def _spec_value(value: Any) -> Any:
    """Canonical JSON-able form of a filter value for fingerprinting."""
    if isinstance(value, datetime):
        return value.isoformat()
    if isinstance(value, (set, frozenset)):
        return sorted((_spec_value(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [_spec_value(v) for v in value]
    return value


@dataclass
class ParameterSpec:
    """One ``<parameter>`` element of a source definition.

    ``value=None`` makes this a pure output dimension.  ``op`` may be
    any comparison of :data:`_OPS` or ``"in"`` with a sequence value.
    ``show`` controls whether a filtered parameter appears in the output
    tuple (default true, per the paper's wording).
    """

    name: str
    value: Any = None
    op: str = "=="
    show: bool = True

    @property
    def is_filter(self) -> bool:
        return self.value is not None


@dataclass
class RunFilter:
    """The ``<run>`` element: restrict by run index or time stamp."""

    indices: Sequence[int] | None = None
    min_index: int | None = None
    max_index: int | None = None
    since: datetime | None = None
    until: datetime | None = None

    def sql(self) -> tuple[str, list[Any]]:
        clauses: list[str] = []
        params: list[Any] = []
        if self.indices is not None:
            marks = ", ".join(["?"] * len(list(self.indices)))
            clauses.append(f"r.run_index IN ({marks})")
            params.extend(int(i) for i in self.indices)
        if self.min_index is not None:
            clauses.append("r.run_index >= ?")
            params.append(int(self.min_index))
        if self.max_index is not None:
            clauses.append("r.run_index <= ?")
            params.append(int(self.max_index))
        if self.since is not None:
            clauses.append("r.created >= ?")
            params.append(self.since.strftime("%Y-%m-%d %H:%M:%S.%f"))
        if self.until is not None:
            clauses.append("r.created <= ?")
            params.append(self.until.strftime("%Y-%m-%d %H:%M:%S.%f"))
        return " AND ".join(clauses), params


class Source(QueryElement):
    """Retrieves a data vector from the experiment's stored runs."""

    kind = "source"

    def __init__(self, name: str, *,
                 parameters: Sequence[ParameterSpec] = (),
                 results: Sequence[str] = (),
                 runs: RunFilter | None = None,
                 include_run_index: bool = False):
        super().__init__(name, inputs=[])
        self.parameters = list(parameters)
        self.results = list(results)
        self.runs = runs
        self.include_run_index = include_run_index
        if not self.results:
            raise QueryError(
                f"source {name!r} needs at least one result value")

    # -- fingerprinting ----------------------------------------------------

    def spec(self) -> dict[str, Any]:
        spec = super().spec()
        spec.update({
            "parameters": [[s.name, s.op, _spec_value(s.value),
                            bool(s.show)] for s in self.parameters],
            "results": list(self.results),
            "runs": None if self.runs is None else {
                "indices": (None if self.runs.indices is None
                            else [int(i) for i in self.runs.indices]),
                "min_index": self.runs.min_index,
                "max_index": self.runs.max_index,
                "since": _spec_value(self.runs.since),
                "until": _spec_value(self.runs.until),
            },
            "include_run_index": self.include_run_index,
        })
        return spec

    # -- helpers ---------------------------------------------------------

    def _filter_sql(self, spec: ParameterSpec, column: str,
                    datatype) -> tuple[str, list[Any]]:
        """The WHERE clause of one filter, its values bound in the
        column's type: neither backend may rely on comparison affinity
        (SQLite converts ``2`` for a TEXT column, the columnar engine
        does not).  LIKE patterns are bound as given."""
        try:
            sql_op = "IN" if spec.op == "in" else _OPS[spec.op]
        except KeyError:
            raise QueryError(
                f"source {self.name!r}: unknown filter operator "
                f"{spec.op!r}") from None
        if sql_op == "LIKE":
            return f"{column} LIKE ?", [spec.value]
        values = list(spec.value) if sql_op == "IN" else [spec.value]
        try:
            values = [_encode_value(coerce(v, datatype), datatype)
                      for v in values]
        except (DataTypeError, ValueError) as exc:
            raise QueryError(
                f"source {self.name!r}: filter value of parameter "
                f"{spec.name!r} is not a {datatype.value}: {exc}") from None
        if sql_op == "IN":
            marks = ", ".join(["?"] * len(values))
            return f"{column} IN ({marks})", values
        return f"{column} {sql_op} ?", values

    def _layout(self, variables) -> _Layout:
        """Partition parameter specs and results by occurrence and
        derive the output vector layout."""
        once_specs: list[ParameterSpec] = []
        multi_specs: list[ParameterSpec] = []
        for spec in self.parameters:
            var = variables[spec.name]
            if var.is_result:
                raise QueryError(
                    f"source {self.name!r}: {spec.name!r} is a result, "
                    "use results= for it")
            if var.occurrence is Occurrence.ONCE:
                once_specs.append(spec)
            else:
                multi_specs.append(spec)
        once_results = [variables[r] for r in self.results
                        if variables[r].occurrence is Occurrence.ONCE]
        multi_results = [variables[r] for r in self.results
                         if variables[r].occurrence is Occurrence.MULTIPLE]
        shown_once = [s for s in once_specs if s.show or not s.is_filter]
        shown_multi = [s for s in multi_specs if s.show or not s.is_filter]
        # the output vector layout (also the insertion column order)
        columns: list[ColumnInfo] = []
        if self.include_run_index:
            columns.append(ColumnInfo("run_index", DataType.INTEGER,
                                      DIMENSIONLESS, "run index"))
        for s in shown_once + shown_multi:
            columns.append(ColumnInfo.from_variable(variables[s.name]))
        for v in once_results + multi_results:
            columns.append(ColumnInfo.from_variable(v))
        return _Layout(once_specs, multi_specs, once_results,
                       multi_results, shown_once, shown_multi, columns)

    def _run_where(self, variables,
                   once_specs) -> tuple[list[str], list[Any]]:
        """WHERE clauses + params selecting the matching runs (over
        aliases ``o`` = pb_once and ``r`` = pb_runs)."""
        where: list[str] = ["r.active = 1"]
        params: list[Any] = []
        for spec in once_specs:
            if spec.is_filter:
                clause, p = self._filter_sql(
                    spec, f"o.{quote_identifier(spec.name)}",
                    variables[spec.name].datatype)
                where.append(clause)
                params.extend(p)
        if self.runs is not None:
            clause, p = self.runs.sql()
            if clause:
                where.append(clause)
                params.extend(p)
        return where, params

    def run_selection(self, experiment) -> list[tuple]:
        """The run-selection rows this source reads in ``experiment``
        now: one ``(run_index, shown-once values, once-result values)``
        tuple per matching run, in run_index order.  Runs never change
        once stored, so under a fixed variable schema these rows
        determine the source's output."""
        return self._matching_runs(experiment.store, experiment.variables,
                                   self._layout(experiment.variables))

    def _matching_runs(self, store, variables, layout: _Layout):
        """Fetch (run_index, shown-once values, once-result values)
        for every matching run, in run_index order."""
        once_cols = ["o.run_index"] + [
            f"o.{quote_identifier(s.name)}" for s in layout.shown_once] + [
            f"o.{quote_identifier(v.name)}" for v in layout.once_results]
        where, params = self._run_where(variables, layout.once_specs)
        return store.db.fetchall(
            f"SELECT {', '.join(once_cols)} FROM pb_once o "
            "JOIN pb_runs r ON r.run_index = o.run_index "
            f"WHERE {' AND '.join(where)} ORDER BY o.run_index",
            params)

    def _dataset_where(self, variables,
                       layout: _Layout) -> tuple[str, list[Any]]:
        """The per-run data-table WHERE clause (identical for every
        run): data-set filters plus the guard skipping rows that
        predate an added result variable (all-NULL in every requested
        column)."""
        dwhere: list[str] = []
        dparams: list[Any] = []
        for spec in layout.multi_specs:
            if spec.is_filter:
                clause, p = self._filter_sql(
                    spec, quote_identifier(spec.name),
                    variables[spec.name].datatype)
                dwhere.append(clause)
                dparams.extend(p)
        if layout.multi_results:
            dwhere.append("NOT (" + " AND ".join(
                f"{quote_identifier(v.name)} IS NULL"
                for v in layout.multi_results) + ")")
        return ((" WHERE " + " AND ".join(dwhere)) if dwhere else "",
                dparams)

    def _run_operands(self, store, variables, layout: _Layout,
                      runs: Sequence[tuple], exp_prefix: str, *,
                      ordinals: bool) -> list[tuple[str, list[Any]]]:
        """One ``SELECT`` per run of ``runs`` that stores data sets.

        Run-level values ride along as bound constants, data-set
        values come from the run's own table under the data-set
        filters.  With ``ordinals`` the (run position, data set)
        order is projected as ``pb_ord__0``/``pb_ord__1``.  Returns
        ``(sql, params)`` pairs in run order — the per-run statements
        of :meth:`run` and the compound operands of :meth:`fuse`.

        One catalogue statement checks every matching run's table: a
        run is skipped when its data table is missing (e.g. dropped
        behind perfbase's back) or lacks a requested column (the run
        predates these variables).
        """
        where_sql, dparams = self._dataset_where(variables, layout)
        needed = ([s.name for s in layout.shown_multi]
                  + [v.name for v in layout.multi_results])
        # the select text is the same for every run: run-level values
        # (and the run position) are bound, only the table name varies
        def bound(name: str) -> str:
            return f"? AS {quote_identifier(name)}"

        def stored(name: str) -> str:
            return f"{quote_identifier(name)} AS {quote_identifier(name)}"

        sel = [bound("run_index")] if self.include_run_index else []
        sel += [bound(s.name) for s in layout.shown_once]
        sel += [stored(s.name) for s in layout.shown_multi]
        sel += [bound(v.name) for v in layout.once_results]
        sel += [stored(v.name) for v in layout.multi_results]
        if ordinals:
            sel += [f"? AS {quote_identifier(ORD_PREFIX + '0')}",
                    f"{quote_identifier('dataset_index')} "
                    f"AS {quote_identifier(ORD_PREFIX + '1')}"]
        head = f"SELECT {', '.join(sel)} FROM {exp_prefix}"
        n_once = len(layout.shown_once) + len(layout.once_results)
        tables = [store.run_table(int(r[0])) for r in runs]
        usable = store.db.tables_with_columns(tables, needed)
        operands: list[tuple[str, list[Any]]] = []
        for position, (run_row, data_table) in enumerate(
                zip(runs, tables)):
            if data_table not in usable:
                continue
            params = ([int(run_row[0])] if self.include_run_index
                      else []) + list(run_row[1:1 + n_once])
            if ordinals:
                params.append(position)
            operands.append((
                f"{head}{quote_identifier(data_table)}{where_sql}",
                params + dparams))
        return operands

    @staticmethod
    def _exp_prefix(ctx: QueryContext) -> str | None:
        """Schema prefix of the experiment tables as seen from
        ``ctx.db`` — empty on the experiment database itself, the
        attach alias on a cluster node's database, ``None`` when the
        node cannot attach it (the stand-in for socket access to the
        frontend server, Section 4.3)."""
        store = ctx.experiment.store
        if ctx.db is store.db:
            return ""
        alias = ctx.db.attach(store.db)
        return f"{alias}." if alias else None

    # -- execution ---------------------------------------------------------

    def run(self, ctx: QueryContext) -> DataVector:
        """The Section 4.3 protocol: "source elements do only perform
        simple read access on the shared database tables, and write
        data into independent temporary tables" — one INSERT..SELECT
        per matching run, entirely inside the SQL engine, after one
        catalogue statement that checks all the runs' tables.  On a node
        whose database cannot attach the experiment database, the same
        per-run selects run on the experiment database and the rows
        travel through Python instead.
        """
        variables = ctx.experiment.variables
        store = ctx.experiment.store
        layout = self._layout(variables)
        table = ctx.temptables.new_table(
            self.name,
            [(c.name, sql_type(c.datatype)) for c in layout.columns])
        rows: list[Any] = []
        runs = self._matching_runs(store, variables, layout)
        if not layout.per_dataset:
            rows = [([int(r[0])] if self.include_run_index else [])
                    + list(r[1:]) for r in runs]
        else:
            exp_prefix = self._exp_prefix(ctx)
            for sql, params in self._run_operands(
                    store, variables, layout, runs, exp_prefix or "",
                    ordinals=False):
                sql += " ORDER BY dataset_index"
                if exp_prefix is None:
                    rows.extend(store.db.fetchall(sql, params))
                else:
                    ctx.db.execute(
                        f"INSERT INTO {quote_identifier(table)} {sql}",
                        params)
        if rows:
            ctx.db.insert_rows(table, [c.name for c in layout.columns],
                               rows)
        return DataVector(ctx.db, table, layout.columns, from_source=True,
                          producer=self.name)

    # -- SQL pushdown ------------------------------------------------------

    def can_fuse(self) -> bool:
        return True

    def fuse(self, ctx: QueryContext,
             inputs: Sequence[Any]) -> SelectFragment:
        """Express the retrieval itself as a composable SELECT.

        :meth:`run` runs one INSERT..SELECT per matching run — by
        far the largest statement count of any element, and pure
        per-statement overhead on warm data.  Fused, a source with
        per-data-set values becomes one UNION ALL of the same per-run
        selects (built after the same single catalogue statement), and
        a run-level-only source a single select over the once table,
        with no catalogue check.  Hidden ordinals pin the (run, data
        set) order, so a chain tail materialises rows in exactly the
        rowid order the source temp table would have had.  More than
        :data:`MAX_COMPOUND_OPERANDS` runs exceed SQLite's compound
        SELECT limit, so such a source falls back to :meth:`run` (on
        every backend, keeping them observably alike).
        """
        variables = ctx.experiment.variables
        layout = self._layout(variables)
        exp_prefix = self._exp_prefix(ctx)
        if exp_prefix is None:
            raise FusionError(
                f"source {self.name!r}: experiment database is not "
                "attachable from this node")
        if not layout.per_dataset:
            return self._once_fragment(variables, layout, exp_prefix,
                                       None)
        store = ctx.experiment.store
        operands = self._run_operands(
            store, variables, layout,
            self._matching_runs(store, variables, layout), exp_prefix,
            ordinals=True)
        if not operands:
            raise FusionError(
                f"source {self.name!r}: no matching runs — the "
                "temp-table path produces the empty vector")
        return self._union_fragment(layout, operands)

    def extension(self, experiment, runs: Sequence[tuple]
                  ) -> tuple[list[ColumnInfo], list[SelectFragment]]:
        """This source's output columns and the rows of the run
        selection ``runs`` (all of it, or the runs after those already
        in a cached entry) as fragments over the experiment database:
        exactly the rows a full run emits for them, in the same order.
        A run-level-only source is one fragment; otherwise each
        fragment unions the operands of at most
        :data:`MAX_COMPOUND_OPERANDS` runs, in run order.  No fragment
        when no run stores a usable data table."""
        variables = experiment.variables
        layout = self._layout(variables)
        if not runs:
            return layout.columns, []
        if not layout.per_dataset:
            return layout.columns, [
                self._once_fragment(variables, layout, "", runs)]
        operands = self._run_operands(experiment.store, variables, layout,
                                      runs, "", ordinals=True)
        return layout.columns, [
            self._union_fragment(layout,
                                 operands[i:i + MAX_COMPOUND_OPERANDS])
            for i in range(0, len(operands), MAX_COMPOUND_OPERANDS)]

    def _once_fragment(self, variables, layout: _Layout, exp_prefix: str,
                       runs: Sequence[tuple] | None) -> SelectFragment:
        """A run-level-only source: one row per matching run, straight
        off the once table (:meth:`run` assembles these rows in
        Python), restricted to the non-empty ``runs`` unless ``None``."""
        ordinal = f"{ORD_PREFIX}0"
        where, params = self._run_where(variables, layout.once_specs)
        if runs is not None:
            where.append("o.run_index IN ("
                         + ", ".join(["?"] * len(runs)) + ")")
            params.extend(int(r[0]) for r in runs)
        sel = []
        if self.include_run_index:
            sel.append(f"o.run_index AS "
                       f"{quote_identifier('run_index')}")
        for name in ([s.name for s in layout.shown_once]
                     + [v.name for v in layout.once_results]):
            sel.append(f"o.{quote_identifier(name)} "
                       f"AS {quote_identifier(name)}")
        sel.append(f"o.run_index AS {quote_identifier(ordinal)}")
        sql = (f"SELECT {', '.join(sel)} FROM {exp_prefix}pb_once o "
               f"JOIN {exp_prefix}pb_runs r "
               "ON r.run_index = o.run_index "
               f"WHERE {' AND '.join(where)}")
        return SelectFragment(
            sql, tuple(params), tuple(layout.columns), (ordinal,),
            (ordinal,), from_source=True, scan_ordered=True,
            ord_rowid=False, producer=self.name)

    def _union_fragment(self, layout: _Layout,
                        operands: list[tuple[str, list[Any]]]
                        ) -> SelectFragment:
        """The UNION ALL of per-run operands (:meth:`_run_operands`)."""
        if len(operands) > MAX_COMPOUND_OPERANDS:
            raise FusionError(
                f"source {self.name!r}: {len(operands)} matching runs "
                f"exceed the {MAX_COMPOUND_OPERANDS}-operand compound "
                "SELECT limit")
        # each operand scans its run table in rowid (== dataset_index)
        # order and both engines emit UNION ALL operands left to right,
        # so the natural emission order is the unfused insertion order
        ords = (f"{ORD_PREFIX}0", f"{ORD_PREFIX}1")
        return SelectFragment(
            " UNION ALL ".join(sql for sql, _ in operands),
            tuple(p for _, params in operands for p in params),
            tuple(layout.columns), ords, ords, from_source=True,
            scan_ordered=True, ord_rowid=False, rescan_cheap=False,
            producer=self.name)


class _Layout(NamedTuple):
    """How a source's specs split by occurrence, and its output
    columns."""

    once_specs: list[ParameterSpec]
    multi_specs: list[ParameterSpec]
    once_results: list
    multi_results: list
    shown_once: list[ParameterSpec]
    shown_multi: list[ParameterSpec]
    columns: list[ColumnInfo]

    @property
    def per_dataset(self) -> bool:
        """Whether any output column comes from the per-run data
        tables (otherwise one row per run, off the once table)."""
        return bool(self.multi_results or self.shown_multi)
