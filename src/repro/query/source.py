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

import threading
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
from .pushdown import (FusionError, SelectFragment, insert_select,
                       ordered_select)
from .vectors import ColumnInfo, DataVector

__all__ = ["ParameterSpec", "RunFilter", "Source", "MAX_COMPOUND_OPERANDS"]

#: SQLite's default SQLITE_MAX_COMPOUND_SELECT: a source's fragment
#: unions one operand per matching run, so a source writes its runs in
#: statements of at most this many, and fuses only within one
MAX_COMPOUND_OPERANDS = 500

#: how many sources' fragments an experiment handle keeps
#: (:meth:`Source._fragments`); a source past the cap evicts the one
#: stored first
FRAGMENT_MEMO_SOURCES = 32

_FRAGMENT_MEMO_LOCK = threading.Lock()

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


def _in_sql(column: str, n_values: int) -> str:
    """``column IN (?, …)`` over ``n_values`` bound values; with none,
    a clause that selects nothing (``IN ()`` is SQLite's extension,
    not SQL the columnar engine parses)."""
    if not n_values:
        return "0 = 1"
    return f"{column} IN ({', '.join(['?'] * n_values)})"


@dataclass
class ParameterSpec:
    """One ``<parameter>`` element of a source definition.

    ``value=None`` makes this a pure output dimension.  ``op`` may be
    any comparison of :data:`_OPS` or ``"in"`` with a sequence value
    (not a string, which would match character by character).
    ``show`` controls whether a filtered parameter appears in the output
    tuple (default true, per the paper's wording).
    """

    name: str
    value: Any = None
    op: str = "=="
    show: bool = True

    def __post_init__(self):
        if self.op == "in" and isinstance(self.value, str):
            raise QueryError(
                f"parameter {self.name!r}: op 'in' needs a sequence of "
                f"values, not the string {self.value!r}")

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
            indices = [int(i) for i in self.indices]
            clauses.append(_in_sql("r.run_index", len(indices)))
            params.extend(indices)
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
            return _in_sql(column, len(values)), values
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
        layout = self._layout(experiment.variables)
        once_cols = ["o.run_index"] + [
            f"o.{quote_identifier(s.name)}" for s in layout.shown_once] + [
            f"o.{quote_identifier(v.name)}" for v in layout.once_results]
        where, params = self._run_where(experiment.variables,
                                        layout.once_specs)
        return experiment.store.db.fetchall(
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

    def _run_operands(self, variables, layout: _Layout,
                      runs: Sequence[tuple], tables: Sequence[str],
                      usable: set[str],
                      exp_prefix: str) -> list[tuple[str, list[Any]]]:
        """One ``SELECT`` per run of ``runs`` that stores data sets.

        Run-level values ride along as bound constants, data-set
        values come from the run's own table under the data-set
        filters, and the (run position, data set) order is projected
        as ``pb_ord__0``/``pb_ord__1``.  Returns ``(sql, params)``
        pairs in run order, the compound operands of
        :meth:`_fragments`.

        ``tables`` are the runs' data tables and ``usable`` those of
        them the catalogue probe found with every requested column: a
        run is skipped when its data table is missing (e.g. dropped
        behind perfbase's back) or lacks a requested column (the run
        predates these variables).
        """
        where_sql, dparams = self._dataset_where(variables, layout)
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
        sel += [bound(ORD_PREFIX + "0"),
                f"{quote_identifier('dataset_index')} "
                f"AS {quote_identifier(ORD_PREFIX + '1')}"]
        head = f"SELECT {', '.join(sel)} FROM {exp_prefix}"
        n_once = len(layout.shown_once) + len(layout.once_results)
        operands: list[tuple[str, list[Any]]] = []
        for position, (run_row, data_table) in enumerate(
                zip(runs, tables)):
            if data_table not in usable:
                continue
            params = ([int(run_row[0])] if self.include_run_index
                      else []) + list(run_row[1:1 + n_once])
            operands.append((
                f"{head}{quote_identifier(data_table)}{where_sql}",
                params + [position] + dparams))
        return operands

    def _fragments(self, experiment, layout: _Layout, exp_prefix: str,
                   runs: Sequence[tuple] | None = None
                   ) -> list[SelectFragment]:
        """This source's one SQL emitter: its rows as fragments over
        the experiment tables under ``exp_prefix``, in run order.

        A run-level-only source is one select over the once table.
        Otherwise each fragment unions the per-run operands
        (:meth:`_run_operands`) of at most
        :data:`MAX_COMPOUND_OPERANDS` runs, and there is none when no
        run stores a usable data table.  ``runs`` restricts the source
        to that part of its run selection (:meth:`run_selection`);
        ``None`` reads all of it.

        The experiment handle keeps the fragments of a per-run source
        (:meth:`_memo`).  The run selection and the catalogue probe
        run on every call; the operands are built again only when
        what they are built from changed.
        """
        if runs is not None and not runs:
            return []
        variables = experiment.variables
        if not layout.per_dataset:
            return [self._once_fragment(variables, layout, exp_prefix,
                                        runs)]
        runs = tuple(self.run_selection(experiment) if runs is None
                     else runs)
        store = experiment.store
        tables = [store.run_table(int(r[0])) for r in runs]
        usable = store.db.tables_with_columns(
            tables, [s.name for s in layout.shown_multi]
            + [v.name for v in layout.multi_results])
        # what the operand text, its parameters and the fragment
        # columns are built from: the definitions of the variables this
        # source reads, the runs, their usable tables and the limit
        key = (tuple(variables[s.name] for s in self.parameters)
               + tuple(variables[r] for r in self.results),
               runs, usable, MAX_COMPOUND_OPERANDS)
        memo = self._memo(store)
        kept = memo.get(exp_prefix)
        if kept is not None and kept[0] == key:
            return kept[1]
        operands = self._run_operands(variables, layout, runs, tables,
                                      usable, exp_prefix)
        # each operand scans its run table in rowid (== dataset_index)
        # order and both engines emit UNION ALL operands left to right,
        # so the natural emission order is the unfused insertion order
        ords = (f"{ORD_PREFIX}0", f"{ORD_PREFIX}1")
        chunks = [operands[i:i + MAX_COMPOUND_OPERANDS]
                  for i in range(0, len(operands), MAX_COMPOUND_OPERANDS)]
        fragments = [SelectFragment(
            " UNION ALL ".join(sql for sql, _ in chunk),
            tuple(p for _, params in chunk for p in params),
            tuple(layout.columns), ords, ords, from_source=True,
            scan_ordered=True, ord_rowid=False, rescan_cheap=False,
            producer=self.name) for chunk in chunks]
        memo[exp_prefix] = (key, fragments)
        return fragments

    def _memo(self, store) -> dict:
        """This source's entries in ``store.source_fragments``, one per
        schema prefix: ``((definitions of the variables it reads,
        run-selection rows, usable tables, operand limit), fragments)``.
        The entries are keyed by the source's fingerprint, which covers
        its whole :meth:`spec`; the handle keeps those of
        :data:`FRAGMENT_MEMO_SOURCES` sources."""
        fingerprint = self.fingerprint()
        sources = store.source_fragments
        with _FRAGMENT_MEMO_LOCK:
            memo = sources.get(fingerprint)
            if memo is None:
                if len(sources) >= FRAGMENT_MEMO_SOURCES:
                    del sources[next(iter(sources))]
                memo = sources[fingerprint] = {}
            return memo

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
        per fragment (:meth:`_fragments`), entirely inside the SQL
        engine.  On a node whose database cannot attach the experiment
        database, the experiment database runs the same fragments and
        their rows travel through Python instead.
        """
        layout = self._layout(ctx.experiment.variables)
        table = ctx.temptables.new_table(
            self.name,
            [(c.name, sql_type(c.datatype)) for c in layout.columns])
        exp_prefix = self._exp_prefix(ctx)
        n_rows = 0
        for frag in self._fragments(ctx.experiment, layout,
                                    exp_prefix or ""):
            if exp_prefix is not None:
                n_rows += insert_select(ctx.db, table, frag)
                continue
            rows = ctx.experiment.store.db.fetchall(ordered_select(frag),
                                                    frag.params)
            if rows:
                ctx.db.insert_rows(
                    table, [c.name for c in layout.columns], rows)
            n_rows += len(rows)
        return DataVector(ctx.db, table, layout.columns, n_rows=n_rows,
                          from_source=True, producer=self.name)

    # -- SQL pushdown ------------------------------------------------------

    def can_fuse(self) -> bool:
        return True

    def fuse(self, ctx: QueryContext,
             inputs: Sequence[Any]) -> SelectFragment:
        """Express the retrieval itself as a composable SELECT: the
        single fragment of :meth:`_fragments`.  Hidden ordinals pin the
        (run, data set) order, so a chain tail materialises rows in
        exactly the rowid order the source temp table would have had.
        A source with no usable run, or with more than
        :data:`MAX_COMPOUND_OPERANDS`, has not one fragment and runs
        element-wise instead (on every backend, keeping them
        observably alike).
        """
        exp_prefix = self._exp_prefix(ctx)
        if exp_prefix is None:
            raise FusionError(
                f"source {self.name!r}: experiment database is not "
                "attachable from this node")
        fragments = self._fragments(
            ctx.experiment, self._layout(ctx.experiment.variables),
            exp_prefix)
        if len(fragments) != 1:
            raise FusionError(
                f"source {self.name!r}: {len(fragments)} fragments (no "
                "usable run, or more than the compound SELECT limit)")
        return fragments[0]

    def extension(self, experiment, runs: Sequence[tuple]
                  ) -> tuple[list[ColumnInfo], list[SelectFragment]]:
        """This source's output columns and the rows of the run
        selection ``runs`` (all of it, or the runs after those already
        in a cached entry) as fragments over the experiment database
        (:meth:`_fragments`): exactly the rows a full run emits for
        them, in the same order."""
        layout = self._layout(experiment.variables)
        return layout.columns, self._fragments(experiment, layout, "",
                                               runs)

    def _once_fragment(self, variables, layout: _Layout, exp_prefix: str,
                       runs: Sequence[tuple] | None) -> SelectFragment:
        """A run-level-only source: one row per matching run, straight
        off the once table, restricted to the non-empty ``runs``
        unless ``None``."""
        ordinal = f"{ORD_PREFIX}0"
        where, params = self._run_where(variables, layout.once_specs)
        if runs is not None:
            where.append(_in_sql("o.run_index", len(runs)))
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
