"""Persistent element-result cache of the incremental query engine.

perfbase's dominant workload is re-running the *same query
specification* against an experiment that grew by a few runs (the
Section 5 analyses are regenerated after every import), so the engine
should not redo work whose inputs did not change.

One key per element
-------------------

Section 4.2 stores each run in its own table, and a run never changes
once stored.  A source's output is therefore a function of its spec,
the experiment's variable schema and the set of runs it matches.  A
source's key hashes its spec with the experiment identity, the schema
counter (:meth:`~repro.db.schema.ExperimentStore.schema_counter`) and
a digest of the rows of its run-selection statement — run indices plus
the run-level values it projects (:func:`run_digest`).  A downstream
element's key hashes its
spec with its producers' keys (Merkle-style, see
:meth:`~repro.query.graph.QueryGraph.fingerprints`), so one key
addresses the whole subgraph below an element.

Every key is known before anything runs.  A query whose sources
matched no new runs is all hits after one probe; an import that a
source does match re-runs only that source's chain.  No result is ever
hashed: an entry's key is its identity.

Storing a source entry
----------------------

A source's rows come in run order, and runs are immutable and never
renumbered (a deleted run's index is not reused).  So when a source's
new run selection is the selection its family's entry was stored
under (same schema counter) followed by later runs, the new entry is
exactly the old payload followed by the new runs' rows.  The metadata
row records the run count and the :func:`run_digest` of the selection,
so the prefix is checked exactly: the digest of the first ``n_runs``
new rows must equal the stored one.  Every missed source is stored by
one method (:meth:`QueryCache.extend`): it copies the old payload in
SQL when the family entry is such a prefix, and appends the rows of
the runs the copy lacks — all of them when nothing was copied.  A
store that copied counts as one ``qcache.extensions``; every store
counts as one miss and one store.  Elements downstream of a stored
source re-run in full.

=========================  =========================================
mutation                   changes
=========================  =========================================
import (``store_run``)     the run set, so the key, of each source the
                           new run matches
``delete_run``             the run set of each source that matched it
variable change            the schema counter, so every key
``fsck`` repair of runs    the schema counter, so every key
=========================  =========================================

Storage
-------

Cached vectors are materialised as ``pbc_<key>`` tables inside the
experiment database (so they survive across processes and are reachable
from every executor), described by one row each in the
``pb_query_cache`` metadata table.  Eviction is LRU under a configurable
byte budget, ordered by a deterministic monotonic ``tick`` counter.
Entries that can never be looked up again are dropped early: source
entries recorded under an older schema counter
(:meth:`QueryCache.prune_stale`), a source's entries under other run
sets when it stores a new one, and, once, every entry of an older key
scheme (the ``query_cache_format`` marker in ``pb_meta``).

``n_bytes``, the unit of the byte budget, is sized from the column
types and the row count (:func:`payload_bytes`), so storing an entry
never reads its rows back.

Observability: ``qcache.hits`` / ``qcache.misses`` / ``qcache.stores`` /
``qcache.evictions`` / ``qcache.extensions`` counters in the process
registry (:data:`repro.obs.REGISTRY`, counted whether or not a tracer
is active), and a ``cache="hit"|"miss"`` span attribute per element,
plus ``extended_runs=<k>`` on a source whose store copied its
family's entry (rendered by ``perfbase explain --trace``).
"""

from __future__ import annotations

import dataclasses
import datetime as _dt
import functools
import hashlib
import json
import threading
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Collection, Sequence,
                    TypeVar)

from .. import faults as _faults
from ..core.datatypes import DataType, sql_type
from ..db.backend import quote_identifier
from ..db.retry import RetryPolicy
from ..db.schema import ExperimentStore, _unit_from_json, _unit_to_json
from ..obs.metrics import MetricsView, count
from ..obs.tracer import maybe_span
from .pushdown import insert_select
from .vectors import ColumnInfo, DataVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.experiment import Experiment
    from .elements import QueryElement
    from .graph import QueryGraph
    from .source import Source

__all__ = ["QueryCache", "CacheEntry", "CachePlan", "SessionCounts",
           "CACHE_TABLE", "CACHE_PREFIX", "DEFAULT_BUDGET_BYTES",
           "columns_to_json", "columns_from_json", "payload_bytes",
           "run_digest", "plan_cached_run"]

CACHE_TABLE = "pb_query_cache"
CACHE_PREFIX = "pbc_"
#: ``pb_meta`` marker of the key scheme; entries of any other scheme
#: are dropped on first use (their keys can never be computed again).
#: 3: source filter values are bound in their parameter's type, so
#: entries computed under the old binding are not served;
#: 4: a source key folds the digest of its run selection, and metadata
#: rows record the run count and digest an extension checks
_FORMAT_KEY = "query_cache_format"
_FORMAT = 4
#: serialises the one-time format check of this process's caches
_FORMAT_LOCK = threading.Lock()
#: default LRU byte budget of one experiment's vector cache
DEFAULT_BUDGET_BYTES = 64 * 1024 * 1024

_COLS = ("key, family, element, kind, query_name, table_name, "
         "schema_counter, n_rows, n_bytes, columns, from_source, hits, "
         "tick, created, n_runs, run_digest, extensions")

#: the cache's instance of the shared retry policy (repro.db.retry):
#: bounded deterministic backoff, lock/busy-only classification and a
#: guaranteed post-deadline attempt
RETRY_POLICY = RetryPolicy(deadline=5.0)

_T = TypeVar("_T")


def _retry_locked(fn: Callable[[], _T]) -> _T:
    """Run ``fn`` under the shared lock-retry policy.

    The cache writes into the experiment database while parallel node
    connections (shared-cache ATTACH) or other processes hold read
    locks on it; those locks clear within microseconds, so bounded
    retrying makes cache stores robust without global coordination.
    Every cache mutation is written to be safely re-runnable.
    """
    return RETRY_POLICY.run(fn, site="qcache")


# -- column metadata (de)serialisation -----------------------------------

def columns_to_json(columns: Sequence[ColumnInfo]) -> list[dict]:
    return [{"name": c.name, "datatype": c.datatype.value,
             "unit": _unit_to_json(c.unit), "synopsis": c.synopsis,
             "is_result": c.is_result} for c in columns]


def columns_from_json(data: Sequence[dict]) -> list[ColumnInfo]:
    return [ColumnInfo(name=d["name"],
                       datatype=DataType.from_name(d["datatype"]),
                       unit=_unit_from_json(d.get("unit", {})),
                       synopsis=d.get("synopsis", ""),
                       is_result=bool(d.get("is_result")))
            for d in data]


@functools.lru_cache(maxsize=1024)
def _columns(text: str) -> tuple[ColumnInfo, ...]:
    """Decoded column metadata of an entry (shared: entries of one
    query are probed again on every run)."""
    return tuple(columns_from_json(json.loads(text)))


# -- payload size and run digest --------------------------------------------

#: bytes one cell of each storage class weighs in ``n_bytes``
_CELL_BYTES = {"INTEGER": 8, "REAL": 8, "TEXT": 24}


@functools.lru_cache(maxsize=1024)
def _layout_bytes(columns: tuple[ColumnInfo, ...],
                  from_source: bool) -> tuple[int, int]:
    """``(header, row width)`` bytes of :func:`payload_bytes` (shared:
    a query stores vectors of the same columns on every run)."""
    header = json.dumps({"columns": columns_to_json(columns),
                         "from_source": from_source},
                        sort_keys=True, separators=(",", ":"), default=str)
    return (len(header),
            sum(_CELL_BYTES[sql_type(c.datatype)] for c in columns))


def payload_bytes(columns: Sequence[ColumnInfo], from_source: bool,
                  n_rows: int) -> int:
    """``n_bytes`` of an entry of ``n_rows`` rows: the unit of the
    eviction budget.

    The length of the compact JSON of the column metadata, plus
    ``n_rows`` times a fixed row width: 8 bytes per INTEGER or REAL
    column and 24 per TEXT column (by :func:`sql_type` of the column's
    datatype).  It is computed from the column types and the row count
    alone, so storing an entry never reads its rows back, and the same
    vector always weighs the same.
    """
    header, width = _layout_bytes(tuple(columns), bool(from_source))
    return header + n_rows * width


@functools.lru_cache(maxsize=1024)
def _columns_text(columns: tuple[ColumnInfo, ...]) -> str:
    """The ``columns`` metadata of an entry (see :func:`_columns`)."""
    return json.dumps(columns_to_json(columns), sort_keys=True,
                      default=str)


def run_digest(rows: Sequence[Sequence[Any]]) -> str:
    """SHA-256 of run-selection rows: each row's ``repr``, one per
    line.  The digest of a selection's first ``n`` rows is the digest
    of the selection an entry of ``n`` runs was stored under, which is
    what an extension checks."""
    return hashlib.sha256(
        "\n".join(map(repr, rows)).encode("utf-8")).hexdigest()


class SessionCounts(dict):
    """``hits``/``misses``/``stores``/``evictions`` by name, plus the
    ``extensions`` among the stores as an attribute (an extension is
    also a miss and a store, so the four keys keep their meaning)."""

    extensions: int = 0


@dataclass(frozen=True)
class CacheEntry:
    """One row of ``pb_query_cache`` (metadata of one cached vector).

    ``family`` groups a source's entries across run sets (the key
    without the run set); it is empty for downstream elements.
    ``schema_counter`` is the counter the entry was recorded under.
    A source entry records the number of runs it holds and the
    :func:`run_digest` of their selection rows (0 and empty
    otherwise), and ``extensions`` counts the extensions its payload
    went through since it was last computed in full.
    """

    key: str
    family: str
    element: str
    kind: str
    query_name: str
    table: str
    schema_counter: int
    n_rows: int
    n_bytes: int
    columns: tuple[ColumnInfo, ...]
    from_source: bool
    hits: int
    tick: int
    created: str
    n_runs: int = 0
    run_digest: str = ""
    extensions: int = 0


class QueryCache:
    """The per-experiment element-result cache.

    Lives inside the experiment database (``pbc_<key>`` payload tables
    plus the ``pb_query_cache`` metadata table), so entries survive
    across processes and are shared by every executor of the
    experiment.  All operations are thread-safe; concurrent executions
    may share one instance.

    ``budget_bytes`` bounds the summed payload size; least-recently-used
    entries are evicted beyond it (``None`` disables eviction).
    """

    def __init__(self, store: ExperimentStore, *,
                 budget_bytes: int | None = DEFAULT_BUDGET_BYTES):
        self.store = store
        self.db = store.db
        self.budget_bytes = budget_bytes
        self._lock = threading.RLock()
        self._metrics = MetricsView()
        self._ready = False
        #: schema counter this cache last pruned at (see prune_stale)
        self._pruned_at: int | None = None

    @property
    def session(self) -> SessionCounts:
        """``hits``/``misses``/``stores``/``evictions`` (and the
        ``extensions`` attribute) counted by the process since this
        cache was created (other caches' included; the persistent
        per-entry hit counts live in the metadata table)."""
        moved = self._metrics.current()
        counts = SessionCounts(
            (what, moved.counter(f"qcache.{what}").value)
            for what in ("hits", "misses", "stores", "evictions"))
        counts.extensions = moved.counter("qcache.extensions").value
        return counts

    # -- infrastructure ---------------------------------------------------

    def _ensure(self) -> None:
        if self._ready:
            return
        _retry_locked(self._ensure_tables)
        self._ready = True

    def _ensure_tables(self) -> None:
        with _FORMAT_LOCK:
            if self.store.get_meta(_FORMAT_KEY) == _FORMAT:
                return
            # a database without the marker holds no entries or entries
            # of an older key scheme, which no run can look up again
            for table in self.db.list_tables():
                if table.startswith(CACHE_PREFIX):
                    self.db.drop_table(table)
            self.db.drop_table(CACHE_TABLE)
            self.db.execute(
                f"CREATE TABLE IF NOT EXISTS {CACHE_TABLE} ("
                "key TEXT PRIMARY KEY, family TEXT, element TEXT, "
                "kind TEXT, query_name TEXT, table_name TEXT, "
                "schema_counter INTEGER, n_rows INTEGER, "
                "n_bytes INTEGER, columns TEXT, from_source INTEGER, "
                "hits INTEGER, tick INTEGER, created TEXT, "
                "n_runs INTEGER, run_digest TEXT, extensions INTEGER)")
            self.db.execute(
                f"CREATE INDEX IF NOT EXISTS {CACHE_TABLE}_family "
                f"ON {CACHE_TABLE} (family)")
            self.store.set_meta(_FORMAT_KEY, _FORMAT)  # commits

    def _next_tick(self) -> int:
        row = self.db.fetchone(
            f"SELECT COALESCE(MAX(tick), 0) + 1 FROM {CACHE_TABLE}")
        return int(row[0])

    @staticmethod
    def _entry(row: Sequence[Any]) -> CacheEntry:
        return CacheEntry(
            key=row[0], family=row[1] or "", element=row[2],
            kind=row[3], query_name=row[4] or "", table=row[5],
            schema_counter=int(row[6]), n_rows=int(row[7]),
            n_bytes=int(row[8]),
            columns=_columns(row[9]),
            from_source=bool(row[10]), hits=int(row[11]),
            tick=int(row[12]), created=row[13] or "",
            n_runs=int(row[14]), run_digest=row[15] or "",
            extensions=int(row[16]))

    def _drop_entries(self, rows: Sequence[Sequence[Any]]) -> None:
        """Drop ``(key, table_name)`` entries with their payloads."""
        if not rows:
            return
        for _, table in rows:
            self.db.drop_table(table)
        self.db.executemany(f"DELETE FROM {CACHE_TABLE} WHERE key=?",
                            [(key,) for key, _ in rows])

    # -- lookup -----------------------------------------------------------

    def lookup(self, key: str) -> CacheEntry | None:
        """Entry under ``key``, counted (and touched) as a hit, or
        counted as a miss."""
        entry = self.lookup_structural([key]).get(key)
        if entry is None:
            count("qcache.misses")
        else:
            self.touch([entry])
        return entry

    def lookup_structural(self, keys: Sequence[str],
                          families: Sequence[str] = ()
                          ) -> dict[str, CacheEntry]:
        """Entries under any of ``keys`` or of ``families``, by key.

        One ``SELECT`` finds the metadata rows and one catalogue check
        their payload tables.  A row whose payload table is missing
        (e.g. dropped behind perfbase's back) is healed — deleted —
        and reads as absent.  Neither counts nor touches
        (:meth:`touch` does).
        """
        keys = sorted(set(keys))
        families = sorted(set(families))
        if not keys and not families:
            return {}
        where = []
        if keys:
            where.append(f"key IN ({', '.join(['?'] * len(keys))})")
        if families:
            where.append(
                f"family IN ({', '.join(['?'] * len(families))})")
        with self._lock:
            self._ensure()
            rows = self.db.fetchall(
                f"SELECT {_COLS} FROM {CACHE_TABLE} WHERE "
                + " OR ".join(where), keys + families)
            if not rows:
                return {}
            present = self.db.tables_with_columns(
                [row[5] for row in rows], [])
            lost = [(row[0], row[5]) for row in rows
                    if row[5] not in present]
            if lost:
                def heal():
                    self._drop_entries(lost)
                    self.db.commit()
                _retry_locked(heal)
            return {row[0]: self._entry(row) for row in rows
                    if row[5] in present}

    def touch(self, entries: Sequence[CacheEntry]) -> None:
        """Count ``entries`` as hits and make them the most recently
        used, in the given order: one tick read and one batched
        update."""
        if not entries:
            return
        with self._lock:
            self._ensure()

            def bump():
                tick = self._next_tick()
                self.db.executemany(
                    f"UPDATE {CACHE_TABLE} SET hits=hits+1, tick=? "
                    "WHERE key=?",
                    [(tick + i, entry.key)
                     for i, entry in enumerate(entries)])
                self.db.commit()
            _retry_locked(bump)
            count("qcache.hits", len(entries))

    def load(self, entry: CacheEntry) -> DataVector:
        """Materialise a :class:`DataVector` view of a cached entry."""
        return DataVector(self.db, entry.table, list(entry.columns),
                          n_rows=entry.n_rows,
                          from_source=entry.from_source,
                          producer=entry.element)

    # -- store ------------------------------------------------------------

    def put(self, key: str, element: "QueryElement", vector: DataVector,
            *, schema_counter: int, query_name: str = "",
            keep: Collection[str] = ()) -> CacheEntry:
        """Persist a missed downstream element's output vector under
        ``key`` (sources are stored by :meth:`extend`).

        A vector on the experiment database is copied in SQL; its rows
        are never read back.  The byte budget spares the entries under
        ``keep`` (those the running query reads).
        """
        with self._lock:
            self._ensure()
            return _retry_locked(lambda: self._put_locked(
                key, element, vector, schema_counter=schema_counter,
                query_name=query_name, keep=keep))

    def _put_locked(self, key: str, element: "QueryElement",
                    vector: DataVector, *, schema_counter: int,
                    query_name: str,
                    keep: Collection[str]) -> CacheEntry:
        if _faults.ACTIVE is not None:
            # inside the retried function: injected transient locks
            # exercise the retry path, injected crashes abandon the
            # store mid-way (fsck repairs the leftovers)
            _faults.ACTIVE.check("cache.put", key=key,
                                 element=element.name)
        won = self._stored(self.db.fetchone(
            f"SELECT {_COLS} FROM {CACHE_TABLE} WHERE key=?", (key,)))
        if won is not None:
            return won  # concurrent producer won
        table = self._new_payload(key, vector.columns)
        if vector.db is self.db:
            n_rows = self._copy(vector.table, table, vector.columns)
        else:
            rows = vector.rows()
            if rows:
                self.db.insert_rows(table, vector.column_names, rows)
            n_rows = len(rows)
        return self._record(CacheEntry(
            key=key, family="", element=element.name,
            kind=element.kind, query_name=query_name, table=table,
            schema_counter=int(schema_counter), n_rows=n_rows,
            n_bytes=payload_bytes(vector.columns, vector.from_source,
                                  n_rows),
            columns=tuple(vector.columns),
            from_source=vector.from_source, hits=0, tick=0, created=""),
            keep)

    def extend(self, base: CacheEntry | None, key: str, source: "Source",
               experiment: "Experiment", runs: Sequence[tuple], *,
               family: str, schema_counter: int, run_digest: str,
               query_name: str = "",
               keep: Collection[str] = ()) -> CacheEntry:
        """Store under ``key`` the output of a missed source whose run
        selection is ``runs`` (with digest ``run_digest``), and drop
        the other entries of its ``family``.

        The new payload table is filled by one copy of ``base``'s
        payload when ``base`` (the family entry whose selection is a
        prefix of ``runs``) is still stored, then by the rows of the
        runs the copy lacks — all of ``runs`` when nothing was copied
        (:meth:`~repro.query.source.Source.extension`: compound
        statements of at most ``MAX_COMPOUND_OPERANDS`` operands, in
        run order).  Only a store that copied counts as one
        ``qcache.extensions``.  The byte budget spares the new entry,
        whose payload the caller reads next, and the entries under
        ``keep``.
        """
        with self._lock:
            self._ensure()
            return _retry_locked(lambda: self._extend_locked(
                base, key, source, experiment, runs, family=family,
                schema_counter=schema_counter, run_digest=run_digest,
                query_name=query_name, keep=keep))

    def _extend_locked(self, base: CacheEntry | None, key: str,
                       source: "Source", experiment: "Experiment",
                       runs: Sequence[tuple], *, family: str,
                       schema_counter: int, run_digest: str,
                       query_name: str,
                       keep: Collection[str]) -> CacheEntry:
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.check("cache.put", key=key,
                                 element=source.name)
        keys = [key] if base is None else [key, base.key]
        found = {row[0]: row for row in self.db.fetchall(
            f"SELECT {_COLS} FROM {CACHE_TABLE} WHERE key IN "
            f"({', '.join(['?'] * len(keys))})", keys)}
        won = self._stored(found.get(key))
        if won is not None:
            return won  # concurrent producer won
        if base is not None and base.key not in found:
            base = None  # a concurrent run of the family stored meanwhile
        columns, fragments = source.extension(
            experiment, runs[base.n_runs if base is not None else 0:])
        table = self._new_payload(key, columns)
        n_rows = 0
        if base is not None:
            n_rows = self._copy(base.table, table, columns)
            if _faults.ACTIVE is not None:
                # between the copy of the old payload and the new runs:
                # a crash here leaves a payload table without its
                # metadata
                _faults.ACTIVE.check("cache.put", key=key,
                                     element=source.name, stage="extend")
        for fragment in fragments:
            n_rows += insert_select(self.db, table, fragment)
        entry = self._record(CacheEntry(
            key=key, family=family, element=source.name, kind=source.kind,
            query_name=query_name, table=table,
            schema_counter=int(schema_counter), n_rows=n_rows,
            n_bytes=payload_bytes(columns, True, n_rows),
            columns=tuple(columns), from_source=True, hits=0, tick=0,
            created="", n_runs=len(runs), run_digest=run_digest,
            extensions=0 if base is None else base.extensions + 1),
            {key, *keep})
        if base is not None:
            count("qcache.extensions")
        return entry

    def _copy(self, source_table: str, table: str,
              columns: Sequence[ColumnInfo]) -> int:
        """Append every row of ``source_table`` to ``table`` in one
        ``INSERT … SELECT``; returns the row count."""
        cols = ", ".join(quote_identifier(c.name) for c in columns)
        return self.db.execute(
            f"INSERT INTO {quote_identifier(table)} ({cols}) "
            f"SELECT {cols} FROM {quote_identifier(source_table)}")

    def _stored(self, row: Sequence[Any] | None) -> CacheEntry | None:
        """The entry of metadata ``row`` if its payload table exists —
        what a concurrent producer of the same key stored — else
        ``None``."""
        if row is not None and self.db.table_exists(row[5]):
            return self._entry(row)
        return None

    def _new_payload(self, key: str,
                     columns: Sequence[ColumnInfo]) -> str:
        """Create the (empty) payload table of ``key``, replacing any
        leftover of an abandoned store."""
        table = CACHE_PREFIX + key[:24]
        self.db.drop_table(table)
        self.db.create_table(
            table, [(c.name, sql_type(c.datatype)) for c in columns])
        return table

    def _record(self, entry: CacheEntry,
                keep: Collection[str]) -> CacheEntry:
        """Write ``entry``'s metadata row (drop the other entries of its
        family), commit, and apply the byte budget, sparing the entries
        under ``keep``: one statement reads the next tick and the bytes
        stored so far.  Returns the entry as stored, built here rather
        than read back."""
        tick, total = self.db.fetchone(
            f"SELECT COALESCE(MAX(tick), 0) + 1, "
            f"COALESCE(SUM(n_bytes), 0) FROM {CACHE_TABLE}")
        entry = dataclasses.replace(
            entry, tick=int(tick),
            created=_dt.datetime.now().strftime("%Y-%m-%d %H:%M:%S"))
        self.db.execute(
            f"INSERT INTO {CACHE_TABLE} ({_COLS}) VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
            "ON CONFLICT(key) DO UPDATE SET "
            + ", ".join(f"{c}=excluded.{c}" for c in _COLS.split(", ")
                        if c != "key"),
            (entry.key, entry.family, entry.element, entry.kind,
             entry.query_name, entry.table, entry.schema_counter,
             entry.n_rows, entry.n_bytes, _columns_text(entry.columns),
             1 if entry.from_source else 0, entry.hits, entry.tick,
             entry.created, entry.n_runs, entry.run_digest,
             entry.extensions))
        if entry.family:
            self._drop_entries(self.db.fetchall(
                f"SELECT key, table_name FROM {CACHE_TABLE} "
                "WHERE family=? AND key<>?", (entry.family, entry.key)))
        self.db.commit()
        count("qcache.stores")
        # dropped and replaced rows only lower the total: within the
        # budget before them, the cache is within it after them
        if (self.budget_bytes is not None
                and int(total) + entry.n_bytes > self.budget_bytes):
            self._evict_locked(keep)
        return entry

    # -- invalidation / eviction ------------------------------------------

    def prune_stale(self, current: int | None = None) -> int:
        """Drop source entries recorded under an older schema counter.

        Their keys fold the schema counter, so after a variable change
        or a data-changing repair they can never be looked up again —
        this reclaims the space early instead of waiting for LRU.
        Downstream entries are left to LRU.  Issues no statement when
        the counter has not moved since this cache last pruned.
        """
        with self._lock:
            self._ensure()
            if current is None:
                current = self.store.schema_counter()
            if self._pruned_at == current:
                return 0
            rows = self.db.fetchall(
                f"SELECT key, table_name FROM {CACHE_TABLE} "
                "WHERE from_source=1 AND schema_counter<?",
                (int(current),))

            def drop():
                self._drop_entries(rows)
                self.db.commit()
            if rows:
                _retry_locked(drop)
            self._pruned_at = current
            return len(rows)

    def _evict_locked(self, keep: Collection[str] = ()) -> list[str]:
        """Evict least-recently-used entries beyond the budget, never
        one under ``keep``: the entries a running query installed (its
        hits and extensions), whose payloads it still reads."""
        if self.budget_bytes is None:
            return []
        total = int(self.db.fetchone(
            f"SELECT COALESCE(SUM(n_bytes), 0) FROM {CACHE_TABLE}")[0])
        if total <= self.budget_bytes:
            return []
        evicted: list[str] = []
        for key, table, n_bytes in self.db.fetchall(
                f"SELECT key, table_name, n_bytes FROM {CACHE_TABLE} "
                "ORDER BY tick"):
            if total <= self.budget_bytes:
                break
            if key in keep:
                continue
            self._drop_entries([(key, table)])
            total -= int(n_bytes)
            evicted.append(key)
            count("qcache.evictions")
        if evicted:
            self.db.commit()
        return evicted

    def evict_to_budget(self) -> list[str]:
        """Apply the LRU byte budget now; returns evicted keys."""
        with self._lock:
            self._ensure()
            return self._evict_locked()

    def clear(self) -> int:
        """Drop every cached vector; returns the number of entries."""
        with self._lock:
            self._ensure()
            rows = self.db.fetchall(
                f"SELECT table_name FROM {CACHE_TABLE}")
            for (table,) in rows:
                self.db.drop_table(table)
            # orphaned payload tables of healed/raced entries, too
            for table in self.db.list_tables():
                if table.startswith(CACHE_PREFIX):
                    self.db.drop_table(table)
            self.db.execute(f"DELETE FROM {CACHE_TABLE}")
            self.db.commit()
            return len(rows)

    # -- introspection -----------------------------------------------------

    def entries(self) -> list[CacheEntry]:
        """All entries, most recently used first."""
        with self._lock:
            self._ensure()
            rows = self.db.fetchall(
                f"SELECT {_COLS} FROM {CACHE_TABLE} "
                "ORDER BY tick DESC")
            return [self._entry(r) for r in rows]

    def stat(self) -> dict[str, Any]:
        """Summary for ``perfbase cache stat``."""
        with self._lock:
            self._ensure()
            row = self.db.fetchone(
                "SELECT COUNT(*), COALESCE(SUM(n_bytes), 0), "
                "COALESCE(SUM(n_rows), 0), COALESCE(SUM(hits), 0), "
                f"COALESCE(SUM(extensions), 0) FROM {CACHE_TABLE}")
            return {
                "entries": int(row[0]),
                "bytes": int(row[1]),
                "rows": int(row[2]),
                "hits_total": int(row[3]),
                "extensions": int(row[4]),
                "budget_bytes": self.budget_bytes,
                "schema_counter": self.store.schema_counter(),
                "session": self.session,
            }


# -- one cached run ----------------------------------------------------------

@dataclass
class CachePlan:
    """How one query run uses the cache — shared by the serial engine
    and the parallel executor.

    Built by :func:`plan_cached_run` before anything runs: ``keys``
    holds every element's key and ``hits`` the entries installed
    instead of running; every other element runs, and each cacheable
    one that does is a miss.  A
    missed source (in ``sources``) is stored by :meth:`extend` and
    served from its new entry; every other miss runs (:meth:`is_miss`)
    and is stored by :meth:`put`.  Without a cache the plan is empty
    and nothing is a miss.  ``run_sets`` holds the run-selection rows
    each source was keyed by — the runs its store reads, so a run
    imported meanwhile cannot enter an entry whose key does not name
    it — and ``digests`` their :func:`run_digest`.
    """

    qcache: QueryCache | None
    schema_counter: int
    keys: dict[str, str]
    #: source name -> family key (its key without the run set)
    families: dict[str, str]
    run_sets: dict[str, list[tuple]]
    hits: dict[str, CacheEntry]
    digests: dict[str, str] = dataclasses.field(default_factory=dict)
    #: missed source name -> the family entry its run set extends, or
    #: ``None`` when its store copies nothing
    sources: dict[str, CacheEntry | None] = dataclasses.field(
        default_factory=dict)
    #: keys of the entries this run installed (hits, source stores):
    #: the byte budget spares them while the run may still read them
    installed: set[str] = dataclasses.field(default_factory=set)

    def __post_init__(self) -> None:
        self.installed.update(entry.key for entry in self.hits.values())

    def load(self, element: "QueryElement",
             entry: CacheEntry) -> DataVector:
        """Serve ``element`` from the cache.  Its span
        (``cache="hit"``) encloses the load, like an executed
        element's span encloses its run."""
        with maybe_span(element.name, kind=element.kind, cache="hit",
                        rows=entry.n_rows, cols=len(entry.columns)):
            return self.qcache.load(entry)

    def is_miss(self, element: "QueryElement") -> bool:
        """Whether ``element``, when it runs, runs as a cache miss."""
        return self.qcache is not None and element.cacheable

    def put(self, element: "QueryElement", vector: DataVector,
            query_name: str) -> None:
        """Store a missed element's fresh output under its key."""
        self.qcache.put(self.keys[element.name], element, vector,
                        schema_counter=self.schema_counter,
                        query_name=query_name, keep=self.installed)

    def extend(self, source: "Source", experiment: "Experiment",
               query_name: str) -> DataVector:
        """Store a missed source of ``sources`` from its family's entry
        (when it extends one) and the runs that entry lacks, and serve
        it from there.  Its span carries ``cache="miss"``, plus
        ``extended_runs=<k>`` when the store copied the family's
        entry."""
        name = source.name
        base = self.sources[name]
        with maybe_span(name, kind=source.kind, cache="miss") as span:
            entry = self.qcache.extend(
                base, self.keys[name], source, experiment,
                self.run_sets[name], family=self.families[name],
                schema_counter=self.schema_counter,
                run_digest=self.digests[name], query_name=query_name,
                keep=self.installed)
            self.installed.add(entry.key)
            if span is not None:
                span.attributes.update(rows=entry.n_rows,
                                       cols=len(entry.columns))
                if base is not None and entry.extensions > base.extensions:
                    span.attributes["extended_runs"] = (entry.n_runs
                                                        - base.n_runs)
            return self.qcache.load(entry)


def _extendable(entry: CacheEntry, schema: int,
                rows: Sequence[tuple]) -> bool:
    """Whether a source whose run selection is ``rows`` can extend its
    family's ``entry``: recorded under the same schema counter, for
    fewer runs, and its selection the prefix of ``rows``."""
    return (entry.schema_counter == schema and entry.n_runs < len(rows)
            and run_digest(rows[:entry.n_runs]) == entry.run_digest)


def plan_cached_run(qcache: QueryCache | None, graph: "QueryGraph",
                    experiment: "Experiment") -> CachePlan:
    """Key every element, probe all keys at once, and decide what runs.

    Without a cache (``qcache`` is ``None``) everything runs: the plan
    is empty and no statement is issued.

    Source entries of an older schema counter are pruned first, when
    the counter moved since the last prune.  Each source's
    run-selection statement then runs once, here; the digest of its
    rows enters the source's key.  One batched probe
    (:meth:`QueryCache.lookup_structural`) finds every entry, and
    every source's family entry.

    Every cacheable element with an entry is a *hit*: it is installed
    instead of run, counted and touched.  Every other element runs,
    and a cacheable one is a *miss*, even when each of its consumers
    hits, so the run's vectors are always those of an uncached run.
    (An ancestor can lack its entry while a consumer keeps one: an
    eviction drops one, and a source's store drops its family's
    entries under other run sets, which a later ``delete_run`` may
    select again.)  A missed source is planned with the family entry
    its run set extends (:func:`_extendable`), if any.
    """
    if qcache is None:
        return CachePlan(None, 0, {}, {}, {}, {})
    schema = qcache.store.schema_counter()
    qcache.prune_stale(schema)
    run_sets = {source.name: source.run_selection(experiment)
                for source in graph.sources}
    digests = {name: run_digest(rows) for name, rows in run_sets.items()}
    keys = graph.fingerprints(
        {"experiment": experiment.name, "schema": schema},
        {name: {"runs": digest} for name, digest in digests.items()})
    families = {source.name: source.fingerprint(
        [], {"experiment": experiment.name}) for source in graph.sources}
    order = list(reversed(graph.topological_order()))
    found = qcache.lookup_structural(
        [keys[e.name] for e in order if e.cacheable], families.values())
    by_family: dict[str, list[CacheEntry]] = {}
    for entry in found.values():
        if entry.family:
            by_family.setdefault(entry.family, []).append(entry)
    hits: dict[str, CacheEntry] = {}
    sources: dict[str, CacheEntry | None] = {}
    misses = 0
    for element in order:
        name = element.name
        entry = found.get(keys[name]) if element.cacheable else None
        if entry is not None:
            hits[name] = entry
            continue
        if element.cacheable:
            misses += 1
        if name in families:
            sources[name] = next(
                (base for base in by_family.get(families[name], ())
                 if _extendable(base, schema, run_sets[name])), None)
    qcache.touch(list(hits.values()))
    count("qcache.misses", misses)
    return CachePlan(qcache, schema, keys, families, run_sets, hits,
                     digests, sources)
