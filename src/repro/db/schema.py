"""Experiment database schema and run storage.

Section 4.2 of the paper describes the layout this module implements:

    "Each experiment database has some tables for meta information and
    one table for parameters and results with a unique occurrence per
    run.  These tables are created during the initialisation of the
    experiment.  For each new run, one table is created which contains
    the tabular data."

Concretely:

``pb_meta``
    key/value store for experiment name, info block, access control and
    schema version (JSON-encoded values).
``pb_variables``
    one row per variable with its JSON-encoded definition — this makes
    the experiment-evolution operations of Section 3.1 cheap.
``pb_runs``
    one row per run: index, creation timestamp, #datasets, active flag
    (deleted runs are deactivated, their data table dropped).
``pb_run_files``
    which input files (with checksum) fed which run — the basis of the
    duplicate-import guard ("without explicit confirmation, importing
    data from the same input file more than once is not possible").
``pb_once``
    one column per once-occurrence variable, one row per run.
``rundata_<index>``
    per-run table with one column per multiple-occurrence variable and
    one row per data set.
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import json
import re
import threading
from typing import Any

from ..core.datatypes import DataType, sql_type
from ..core.errors import (DatabaseError, DefinitionError, NoSuchRunError)
from ..core.run import RunData, RunRecord
from ..core.units import BaseUnit, Unit
from ..core.variables import (Occurrence, Parameter, Result, Variable,
                              VariableSet)
from ..obs.metrics import count
from ..obs.tracer import maybe_span
from .backend import Database, quote_identifier
from .retry import retry_locked

__all__ = ["BatchContext", "ExperimentStore", "variable_to_json",
           "variable_from_json", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

_META = "pb_meta"
_VARS = "pb_variables"
_RUNS = "pb_runs"
_FILES = "pb_run_files"
_ONCE = "pb_once"
#: index keeping the duplicate-import guard O(log n) at E9 scale
_FILES_CHECKSUM_INDEX = "pb_run_files_checksum"
#: pb_meta key of the schema counter (bumped by variable changes and
#: data-changing fsck repairs; folded into every query-cache key)
_SCHEMA_COUNTER_KEY = "schema_counter"


def _unit_to_json(unit: Unit) -> dict:
    return {
        "dividend": [[u.name, u.scaling] for u in unit.dividend],
        "divisor": [[u.name, u.scaling] for u in unit.divisor],
    }


def _unit_from_json(data: dict) -> Unit:
    return Unit(
        tuple(BaseUnit(n, s) for n, s in data.get("dividend", [])),
        tuple(BaseUnit(n, s) for n, s in data.get("divisor", [])),
    )


def variable_to_json(var: Variable) -> str:
    """Serialise a variable definition for the ``pb_variables`` table."""
    return json.dumps({
        "name": var.name,
        "kind": var.kind,
        "datatype": var.datatype.value,
        "synopsis": var.synopsis,
        "description": var.description,
        "occurrence": var.occurrence.value,
        "unit": _unit_to_json(var.unit),
        "valid_values": [_encode_value(v, var.datatype)
                         for v in var.valid_values],
        "default": _encode_value(var.default, var.datatype),
    })


def variable_from_json(text: str) -> Variable:
    """Inverse of :func:`variable_to_json`."""
    data = json.loads(text)
    datatype = DataType.from_name(data["datatype"])
    cls = Result if data.get("kind") == "result" else Parameter
    return cls(
        name=data["name"],
        datatype=datatype,
        synopsis=data.get("synopsis", ""),
        description=data.get("description", ""),
        occurrence=Occurrence.from_name(data.get("occurrence", "once")),
        unit=_unit_from_json(data.get("unit", {})),
        valid_values=tuple(_decode_value(v, datatype)
                           for v in data.get("valid_values", [])),
        default=_decode_value(data.get("default"), datatype),
    )


def _encode_value(value: Any, datatype: DataType) -> Any:
    """Encode a Python value for storage (JSON or SQL cell)."""
    if value is None:
        return None
    if datatype is DataType.TIMESTAMP and isinstance(value, _dt.datetime):
        return value.strftime("%Y-%m-%d %H:%M:%S.%f")
    if datatype is DataType.BOOLEAN:
        return int(bool(value))
    return value


def _dataset_rows(datasets: list[dict[str, Any]],
                  multi_vars: list[Variable]) -> list[list[Any]]:
    """The rows of one run's data table: the data-set index, then one
    cell per multiple-occurrence variable.  The encoder is picked once
    per column: only TIMESTAMP and BOOLEAN cells pass through
    :func:`_encode_value`, which returns every other value unchanged."""
    names = [v.name for v in multi_vars]
    encoded = [(j, v.datatype) for j, v in enumerate(multi_vars, 1)
               if v.datatype in (DataType.TIMESTAMP, DataType.BOOLEAN)]
    rows = []
    for i, ds in enumerate(datasets):
        row = [i, *map(ds.get, names)]
        for j, datatype in encoded:
            row[j] = _encode_value(row[j], datatype)
        rows.append(row)
    return rows


#: the two shapes :func:`_encode_value` stores a timestamp in, zero
#: padded, in ASCII digits
_STORED_TIMESTAMP = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}"
    r"(?:\.[0-9]{6})?")


def _decode_timestamp(value: Any) -> _dt.datetime:
    """A stored timestamp as a datetime.

    One of a stored shape is read by ``fromisoformat``, which reads
    those two shapes as ``strptime`` does, ~30 times as fast; any other
    string, or one ``fromisoformat`` rejects, goes through the
    ``strptime`` pair, so nothing more is accepted."""
    if isinstance(value, _dt.datetime):
        return value
    if type(value) is str and _STORED_TIMESTAMP.fullmatch(value):
        try:
            return _dt.datetime.fromisoformat(value)
        except ValueError:
            pass
    for fmt in ("%Y-%m-%d %H:%M:%S.%f", "%Y-%m-%d %H:%M:%S"):
        try:
            return _dt.datetime.strptime(str(value), fmt)
        except ValueError:
            continue
    raise DatabaseError(f"bad stored timestamp {value!r}")


#: how a stored cell of each datatype is decoded; any other is read
#: as stored
_DECODERS = {DataType.TIMESTAMP: _decode_timestamp,
             DataType.BOOLEAN: bool,
             DataType.DURATION: float}


def _decode_value(value: Any, datatype: DataType) -> Any:
    """Decode a stored cell back into the Python value space."""
    if value is None:
        return None
    decode = _DECODERS.get(datatype)
    return value if decode is None else decode(value)


class ExperimentStore:
    """Persistence of one experiment in one :class:`Database`.

    Run storage is safe under in-process concurrency (parallel
    importers share one store): index allocation and the associated
    inserts happen under a write lock.

    The decoded :class:`VariableSet` is cached per store instance —
    decoding every ``pb_variables`` row for every
    ``run_record``/``load_once``/``load_datasets`` call made status
    retrieval O(runs x variables) in SQL statements.  Every
    schema-evolution entry point (:meth:`save_variables`,
    :meth:`add_variable`, :meth:`remove_variable`,
    :meth:`modify_variable`) invalidates the cache; external writers
    (another process on the same database file) require an explicit
    :meth:`invalidate_variables_cache`.

    :meth:`batch` opens a :class:`BatchContext` that turns many
    ``store_run`` calls into one transaction with grouped inserts.
    """

    def __init__(self, db: Database):
        self.db = db
        self._write_lock = threading.Lock()
        self._variables_cache: VariableSet | None = None
        self._checksum_index_ready = False
        self._batch: "BatchContext | None" = None
        #: the query sources' fragments, kept by this handle
        #: (``repro.query.source.Source._fragments``)
        self.source_fragments: dict = {}

    # -- initialisation ----------------------------------------------------

    def initialise(self, name: str) -> None:
        """Create the meta tables for a fresh experiment database."""
        if self.db.table_exists(_META):
            raise DatabaseError("database is already initialised")
        self.db.create_table(_META, [("key", "TEXT"), ("value", "TEXT")],
                             primary_key="key")
        self.db.create_table(_VARS, [("name", "TEXT"),
                                     ("definition", "TEXT"),
                                     ("position", "INTEGER")],
                             primary_key="name")
        self.db.create_table(_RUNS, [("run_index", "INTEGER"),
                                     ("created", "TEXT"),
                                     ("n_datasets", "INTEGER"),
                                     ("active", "INTEGER")],
                             primary_key="run_index")
        self.db.create_table(_FILES, [("run_index", "INTEGER"),
                                      ("filename", "TEXT"),
                                      ("checksum", "TEXT")])
        self._ensure_checksum_index()
        self.db.create_table(_ONCE, [("run_index", "INTEGER")],
                             primary_key="run_index")
        self.set_meta("name", name)
        self.set_meta("schema_version", SCHEMA_VERSION)
        self.db.commit()

    @property
    def is_initialised(self) -> bool:
        return self.db.table_exists(_META)

    def _ensure_checksum_index(self) -> None:
        """Create the checksum index once per store (covers databases
        initialised before the index existed)."""
        if not self._checksum_index_ready:
            self.db.create_index(_FILES_CHECKSUM_INDEX, _FILES,
                                 ["checksum"])
            self._checksum_index_ready = True

    # -- meta key/value ------------------------------------------------------

    def set_meta(self, key: str, value: Any) -> None:
        self.db.execute(
            f"INSERT INTO {_META} (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
            (key, json.dumps(value)))
        self.db.commit()

    def get_meta(self, key: str, default: Any = None) -> Any:
        row = self.db.fetchone(
            f"SELECT value FROM {_META} WHERE key=?", (key,))
        if row is None:
            return default
        return json.loads(row[0])

    # -- schema counter ----------------------------------------------------

    def schema_counter(self) -> int:
        """Monotonic counter of changes to what a stored run reads as.

        Bumped by the four schema-evolution operations and by fsck
        repairs that change visible run data — not by imports or
        deletes: runs are immutable once stored, so those change only
        *which* runs a query matches, and the query cache keys each
        source by its matching runs directly.  Databases created before
        the counter existed report 0.
        """
        return int(self.get_meta(_SCHEMA_COUNTER_KEY, 0))

    def bump_schema_counter(self) -> int:
        """Advance the schema counter without committing: the
        surrounding mutation's commit (or rollback) covers the bump,
        keeping it atomic with the change it records."""
        new = self.schema_counter() + 1
        self.db.execute(
            f"INSERT INTO {_META} (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value=excluded.value",
            (_SCHEMA_COUNTER_KEY, json.dumps(new)))
        return new

    # -- variable definitions --------------------------------------------

    def invalidate_variables_cache(self) -> None:
        """Drop the cached :class:`VariableSet`.

        Called automatically by every evolution entry point of this
        store; call it manually after another process changed the
        ``pb_variables`` table of a shared database file.
        """
        self._variables_cache = None

    @contextlib.contextmanager
    def _schema_change(self):
        """One change of the variable schema as one transaction.

        On success the schema counter is bumped and everything
        committed.  Any failure rolls the change back before
        re-raising, or its statements would stay pending on this
        connection and the next commit would persist half of it.  A
        simulated crash (a BaseException) abandons the transaction
        instead, like a killed process.  The variables cache is
        dropped either way.
        """
        try:
            yield
            self.bump_schema_counter()
            self.db.commit()
        except Exception:
            try:
                self.db.rollback()
            except DatabaseError:
                pass  # the original exception matters more
            raise
        finally:
            self.invalidate_variables_cache()

    def save_variables(self, variables: VariableSet) -> None:
        """Persist the full variable set (used at setup time)."""
        with self._schema_change():
            self.db.execute(f"DELETE FROM {_VARS}")
            self.db.insert_rows(
                _VARS, ["name", "definition", "position"],
                [(v.name, variable_to_json(v), i)
                 for i, v in enumerate(variables)])

    def load_variables(self) -> VariableSet:
        """The experiment's variable set (cached; see class docs).

        The returned set is shared — treat it as read-only and go
        through the evolution entry points for changes.
        """
        cached = self._variables_cache
        if cached is not None:
            return cached
        rows = self.db.fetchall(
            f"SELECT definition FROM {_VARS} ORDER BY position")
        variables = VariableSet([variable_from_json(r[0]) for r in rows])
        self._variables_cache = variables
        return variables

    def add_variable(self, var: Variable) -> None:
        """Experiment evolution: add a variable.

        Once-variables grow a column on ``pb_once`` (existing runs get
        NULL content); multiple-variables grow a column on every active
        run's data table.
        """
        variables = self.load_variables()
        variables.add(var)  # raises on duplicates
        with self._schema_change():
            pos = self.db.fetchone(
                f"SELECT COALESCE(MAX(position), -1) + 1 FROM {_VARS}")[0]
            self.db.execute(
                f"INSERT INTO {_VARS} (name, definition, position) "
                "VALUES (?, ?, ?)", (var.name, variable_to_json(var), pos))
            stype = sql_type(var.datatype)
            if var.occurrence is Occurrence.ONCE:
                self.db.add_column(_ONCE, var.name, stype)
            else:
                for idx in self.run_indices():
                    self.db.add_column(self.run_table(idx), var.name,
                                       stype)

    def remove_variable(self, name: str) -> None:
        """Experiment evolution: remove a variable and its stored data."""
        variables = self.load_variables()
        var = variables.remove(name)
        with self._schema_change():
            self.db.execute(f"DELETE FROM {_VARS} WHERE name=?", (name,))
            if var.occurrence is Occurrence.ONCE:
                if name in self.db.table_columns(_ONCE):
                    self.db.drop_column(_ONCE, name)
            else:
                for idx in self.run_indices():
                    table = self.run_table(idx)
                    if name in self.db.table_columns(table):
                        self.db.drop_column(table, name)

    def modify_variable(self, var: Variable) -> None:
        """Experiment evolution: replace the definition of a variable.

        Only metadata (synopsis, description, valid values, default,
        unit) may change; datatype and occurrence changes would require a
        data migration and are rejected.
        """
        old = self.load_variables()[var.name]
        if old.datatype is not var.datatype:
            raise DefinitionError(
                f"cannot change datatype of {var.name!r} "
                f"({old.datatype.value} -> {var.datatype.value})")
        if old.occurrence is not var.occurrence:
            raise DefinitionError(
                f"cannot change occurrence of {var.name!r}")
        with self._schema_change():
            self.db.execute(
                f"UPDATE {_VARS} SET definition=? WHERE name=?",
                (variable_to_json(var), var.name))

    def _ensure_once_columns(self, variables: VariableSet) -> None:
        existing = set(self.db.table_columns(_ONCE))
        for var in variables.once():
            if var.name not in existing:
                self.db.add_column(_ONCE, var.name,
                                   sql_type(var.datatype))

    # -- runs ------------------------------------------------------------------

    @staticmethod
    def run_table(index: int) -> str:
        return f"rundata_{int(index)}"

    def next_run_index(self) -> int:
        row = self.db.fetchone(
            f"SELECT COALESCE(MAX(run_index), 0) + 1 FROM {_RUNS}")
        return int(row[0])

    def batch(self) -> "BatchContext":
        """A context manager batching many :meth:`store_run` calls
        into one transaction with grouped inserts (see
        :class:`BatchContext`)."""
        return BatchContext(self)

    def store_run(self, run: RunData, variables: VariableSet | None = None,
                  *, created: _dt.datetime | None = None) -> int:
        """Persist a validated :class:`RunData`; returns the run index.

        The run is stored as a :meth:`batch` of one, or joins the
        calling thread's active batch (deferred commit, grouped meta
        inserts) — callers do not need to distinguish the two paths.
        """
        with self.batch() as batch:
            return batch.store_run(run, variables, created=created)

    def run_indices(self, *, include_inactive: bool = False) -> list[int]:
        sql = f"SELECT run_index FROM {_RUNS}"
        if not include_inactive:
            sql += " WHERE active=1"
        return [int(r[0]) for r in self.db.fetchall(sql + " ORDER BY run_index")]

    def run_record(self, index: int) -> RunRecord:
        row = self.db.fetchone(
            f"SELECT run_index, created, n_datasets FROM {_RUNS} "
            "WHERE run_index=? AND active=1", (index,))
        if row is None:
            raise NoSuchRunError(f"no run with index {index}")
        files = [r[0] for r in self.db.fetchall(
            f"SELECT filename FROM {_FILES} WHERE run_index=?", (index,))]
        return RunRecord(
            index=int(row[0]),
            created=_decode_value(row[1], DataType.TIMESTAMP),
            source_files=tuple(files),
            n_datasets=int(row[2]),
            once=self.load_once(index))

    def run_records(self) -> list[RunRecord]:
        """All active runs' records in three statements total.

        The per-run :meth:`run_record` costs three statements *per
        run*; status retrieval over hundreds of runs (``perfbase
        runs``/``report``) uses this bulk form instead.  Output is
        identical to ``[run_record(i) for i in run_indices()]``.
        """
        variables = self.load_variables()
        with maybe_span("run_records", kind="status") as span:
            runs = self.db.fetchall(
                f"SELECT run_index, created, n_datasets FROM {_RUNS} "
                "WHERE active=1 ORDER BY run_index")
            files: dict[int, list[str]] = {}
            for run_index, filename in self.db.fetchall(
                    f"SELECT run_index, filename FROM {_FILES}"):
                files.setdefault(int(run_index), []).append(filename)
            once_cols = self.db.table_columns(_ONCE)
            key = once_cols.index("run_index")
            # (position, variable, decoder or None) per stored
            # variable, looked up once instead of once per run
            shown = [(j, col, _DECODERS.get(variables[col].datatype))
                     for j, col in enumerate(once_cols)
                     if col != "run_index" and col in variables]
            once: dict[int, dict[str, Any]] = {}
            for row in self.db.fetchall(f"SELECT * FROM {_ONCE}"):
                content: dict[str, Any] = {}
                for j, col, decode in shown:
                    value = row[j]
                    if value is not None:
                        content[col] = (value if decode is None
                                        else decode(value))
                once[int(row[key])] = content
            if span is not None:
                span.attributes["runs"] = len(runs)
        return [
            RunRecord(
                index=int(r[0]),
                created=_decode_value(r[1], DataType.TIMESTAMP),
                source_files=tuple(files.get(int(r[0]), ())),
                n_datasets=int(r[2]),
                once=once.get(int(r[0]), {}))
            for r in runs]

    def load_once(self, index: int) -> dict[str, Any]:
        """Once-content of a run, decoded per variable datatype."""
        variables = self.load_variables()
        cols = self.db.table_columns(_ONCE)
        row = self.db.fetchone(
            f"SELECT * FROM {_ONCE} WHERE run_index=?", (index,))
        if row is None:
            raise NoSuchRunError(f"no run with index {index}")
        out: dict[str, Any] = {}
        for col, value in zip(cols, row):
            if col == "run_index" or value is None:
                continue
            if col in variables:
                out[col] = _decode_value(value, variables[col].datatype)
        return out

    def load_datasets(self, index: int) -> list[dict[str, Any]]:
        """All data sets of a run, decoded per variable datatype."""
        variables = self.load_variables()
        table = self.run_table(index)
        if not self.db.table_exists(table):
            raise NoSuchRunError(f"no run with index {index}")
        cols = self.db.table_columns(table)
        rows = self.db.fetchall(
            f"SELECT * FROM {quote_identifier(table)} "
            "ORDER BY dataset_index")
        out = []
        for row in rows:
            ds: dict[str, Any] = {}
            for col, value in zip(cols, row):
                if col == "dataset_index" or value is None:
                    continue
                if col in variables:
                    ds[col] = _decode_value(value, variables[col].datatype)
            out.append(ds)
        return out

    def load_run(self, index: int) -> RunData:
        """Rehydrate a full :class:`RunData` from storage."""
        record = self.run_record(index)
        return RunData(once=self.load_once(index),
                       datasets=self.load_datasets(index),
                       source_files=record.source_files,
                       created=record.created)

    def delete_run(self, index: int) -> None:
        """Deactivate a run and drop its data table."""
        if index not in self.run_indices():
            raise NoSuchRunError(f"no run with index {index}")
        self.db.execute(
            f"UPDATE {_RUNS} SET active=0 WHERE run_index=?", (index,))
        self.db.execute(
            f"DELETE FROM {_ONCE} WHERE run_index=?", (index,))
        self.db.drop_table(self.run_table(index))
        self.db.commit()

    def n_runs(self) -> int:
        row = self.db.fetchone(
            f"SELECT COUNT(*) FROM {_RUNS} WHERE active=1")
        return int(row[0])

    # -- duplicate import guard ------------------------------------------

    def known_checksums(self) -> dict[str, int]:
        """Map of input-file checksum -> run index (active runs only)."""
        rows = self.db.fetchall(
            f"SELECT f.checksum, f.run_index FROM {_FILES} f "
            f"JOIN {_RUNS} r ON r.run_index = f.run_index "
            "WHERE r.active=1 AND f.checksum IS NOT NULL")
        return {r[0]: int(r[1]) for r in rows}

    def find_import(self, checksum: str) -> int | None:
        """Run index a file with this checksum was imported as, if any.

        A point query over the checksum index — O(log n) instead of
        materialising :meth:`known_checksums` per imported file.  Runs
        buffered in an open batch of the calling thread are visible
        too, so in-batch duplicates are still caught.
        """
        batch = self._batch
        if batch is not None and batch.owns_current_thread:
            pending = batch.pending_checksum(checksum)
            if pending is not None:
                return pending
        self._ensure_checksum_index()
        row = self.db.fetchone(
            f"SELECT f.run_index FROM {_FILES} f "
            f"JOIN {_RUNS} r ON r.run_index = f.run_index "
            "WHERE f.checksum=? AND r.active=1 LIMIT 1", (checksum,))
        return None if row is None else int(row[0])


class BatchContext:
    """Many runs, one transaction: the one path that stores runs.

    :meth:`ExperimentStore.store_run` outside a batch stores its run as
    a batch of one.  A batch

    * allocates the run-index range once at entry,
    * reuses the store's cached :class:`VariableSet`,
    * buffers the ``pb_once``/``pb_runs``/``pb_run_files`` rows and
      flushes each table with a single ``executemany`` at exit,
    * commits exactly once (per-run data tables are still created
      immediately — their contents are per-run by design and already
      go through ``executemany``).

    A batch of n runs stores the same bytes as n batches of one: same
    run indices, same cell values, same checksum bookkeeping.  On an
    exception the whole batch rolls back, so a failed batch leaves the
    experiment untouched (Section 3.2's "without worrying about corrupt
    or incomplete experiment data").

    The batch holds the store's write lock for its whole extent and
    registers itself on the store, so ``store_run`` calls anywhere
    down the call chain (``Experiment.store_run``, the importers) join
    it transparently.  Nested ``with store.batch()`` blocks on the
    same thread join the outer batch.  Do not evolve the experiment
    schema (add/remove/modify variables) inside a batch — those entry
    points commit, which would split the batch transaction.
    """

    def __init__(self, store: ExperimentStore):
        self.store = store
        self.db = store.db
        #: run indices allocated by this batch, in storage order
        self.indices: list[int] = []
        self._owner: int | None = None
        self._outer: "BatchContext | None" = None
        self._next_index = 0
        self._variables: VariableSet | None = None
        self._once_rows: list[tuple[int, dict[str, Any]]] = []
        self._runs_rows: list[tuple] = []
        self._files_rows: list[tuple] = []
        self._checksums: dict[str, int] = {}

    @property
    def owns_current_thread(self) -> bool:
        return self._owner == threading.get_ident()

    def pending_checksum(self, checksum: str) -> int | None:
        """Run index of a not-yet-flushed file with this checksum."""
        return self._checksums.get(checksum)

    def __enter__(self) -> "BatchContext":
        active = self.store._batch
        if active is not None and active.owns_current_thread:
            self._outer = active  # nested batch: join the outer one
            return active
        # lazy index creation must not join (and die with) the batch
        # transaction
        self.store._ensure_checksum_index()
        self.store._write_lock.acquire()
        self._owner = threading.get_ident()
        self.store._batch = self
        try:
            self.db.begin()
            self._next_index = self.store.next_run_index()
            self._variables = self.store.load_variables()
            self.store._ensure_once_columns(self._variables)
        except BaseException as exc:
            # the BEGIN above already ran: roll it back, or the open
            # transaction leaks into whatever runs next on this
            # connection (a retrying caller would then commit work of
            # a failed attempt).  A simulated crash (CrashFault is a
            # BaseException, not an Exception) must instead abandon
            # the transaction exactly like a killed process would.
            if isinstance(exc, Exception):
                try:
                    self.db.rollback()
                except DatabaseError:
                    pass
            self._release()
            raise
        count("db.batches")
        return self

    def store_run(self, run: RunData,
                  variables: VariableSet | None = None, *,
                  created: _dt.datetime | None = None) -> int:
        """Persist one run within the batch; returns the run index."""
        if not self.owns_current_thread:
            raise DatabaseError(
                "a batch is only usable from the thread that opened it")
        variables = variables or self._variables
        created = created or run.created or _dt.datetime.now()
        index = self._next_index
        self._next_index += 1

        once_vars = [v for v in variables.once() if v.name in run.once]
        self._once_rows.append((index, {
            v.name: _encode_value(run.once[v.name], v.datatype)
            for v in once_vars}))

        multi_vars = variables.multiple()
        table = self.store.run_table(index)
        self.db.create_table(
            table,
            [("dataset_index", "INTEGER")]
            + [(v.name, sql_type(v.datatype)) for v in multi_vars],
            primary_key="dataset_index")
        if run.datasets:
            self.db.insert_rows(
                table, ["dataset_index"] + [v.name for v in multi_vars],
                _dataset_rows(run.datasets, multi_vars))

        self._runs_rows.append(
            (index, created.strftime("%Y-%m-%d %H:%M:%S.%f"),
             len(run.datasets), 1))
        if run.source_files:
            from .checksums import file_checksum
            for fn in run.source_files:
                checksum = run.file_checksums.get(fn)
                if checksum is None:
                    checksum = file_checksum(fn, missing_ok=True)
                self._files_rows.append((index, fn, checksum))
                if checksum is not None:
                    self._checksums.setdefault(checksum, index)
        self.indices.append(index)
        count("db.batch_runs")
        return index

    def flush(self) -> None:
        """Write the buffered meta rows (one ``executemany`` per
        table).  Called automatically on exit; long-running batches may
        flush periodically to bound the buffers."""
        if not (self._once_rows or self._runs_rows or self._files_rows):
            return
        with maybe_span("batch_flush", kind="db.batch",
                        runs=len(self._runs_rows)):
            if self._once_rows:
                # one statement over the union of once-columns —
                # unspecified columns default to NULL, so the stored
                # rows equal per-run inserts
                names: list[str] = []
                for _index, content in self._once_rows:
                    for name in content:
                        if name not in names:
                            names.append(name)
                self.db.insert_rows(
                    _ONCE, ["run_index"] + names,
                    [[index] + [content.get(n) for n in names]
                     for index, content in self._once_rows])
            if self._runs_rows:
                self.db.insert_rows(
                    _RUNS, ["run_index", "created", "n_datasets",
                            "active"], self._runs_rows)
            if self._files_rows:
                self.db.insert_rows(
                    _FILES, ["run_index", "filename", "checksum"],
                    self._files_rows)
            count("db.batch_flushes")
        self._once_rows.clear()
        self._runs_rows.clear()
        self._files_rows.clear()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._outer is not None:
            self._outer = None  # joined batch: the outer exit settles
            return False
        try:
            if exc_type is None:
                try:
                    self.flush()
                    # a concurrent reader's transient lock must not
                    # throw away a whole imported batch — commit under
                    # the shared retry policy
                    retry_locked(self.db.commit, site="db.batch")
                except Exception:
                    # a failed flush/commit must not leave the batch
                    # transaction open: the next commit on this
                    # connection would silently persist the failed
                    # batch (phantom runs).  CrashFault deliberately
                    # bypasses this — a dead process cannot roll back.
                    try:
                        self.db.rollback()
                    except DatabaseError:
                        pass
                    raise
            else:
                try:
                    self.db.rollback()
                except DatabaseError:
                    pass  # the original exception matters more
        finally:
            self._release()
        return False

    def _release(self) -> None:
        self.store._batch = None
        self._owner = None
        self._checksums.clear()
        self.store._write_lock.release()
