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
the rows of its run-selection statement — run indices plus the
run-level values it projects.  A downstream element's key hashes its
spec with its producers' keys (Merkle-style, see
:meth:`~repro.query.graph.QueryGraph.fingerprints`), so one key
addresses the whole subgraph below an element.

Every key is known before anything runs.  A query whose sources
matched no new runs is all hits after one probe; an import that a
source does match re-runs only that source's chain.  No result is ever
hashed: an entry's key is its identity.

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

Observability: ``qcache.hits`` / ``qcache.misses`` / ``qcache.stores`` /
``qcache.evictions`` counters in the process registry
(:data:`repro.obs.REGISTRY`, counted whether or not a tracer is
active), and a ``cache="hit"|"miss"`` span attribute per element (rendered by
``perfbase explain --trace``).
"""

from __future__ import annotations

import datetime as _dt
import functools
import json
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence, TypeVar

from .. import faults as _faults
from ..core.datatypes import DataType, sql_type
from ..db.backend import quote_identifier
from ..db.retry import RetryPolicy
from ..db.schema import ExperimentStore, _unit_from_json, _unit_to_json
from ..obs.metrics import MetricsView, count
from ..obs.tracer import maybe_span
from .vectors import ColumnInfo, DataVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.experiment import Experiment
    from .elements import QueryElement
    from .graph import QueryGraph

__all__ = ["QueryCache", "CacheEntry", "CachePlan", "CACHE_TABLE",
           "CACHE_PREFIX", "DEFAULT_BUDGET_BYTES", "columns_to_json",
           "columns_from_json", "plan_cached_run"]

CACHE_TABLE = "pb_query_cache"
CACHE_PREFIX = "pbc_"
#: ``pb_meta`` marker of the key scheme; entries of any other scheme
#: are dropped on first use (their keys can never be computed again).
#: 3: source filter values are bound in their parameter's type, so
#: entries computed under the old binding are not served
_FORMAT_KEY = "query_cache_format"
_FORMAT = 3
#: serialises the one-time format check of this process's caches
_FORMAT_LOCK = threading.Lock()
#: default LRU byte budget of one experiment's vector cache
DEFAULT_BUDGET_BYTES = 64 * 1024 * 1024

_COLS = ("key, family, element, kind, query_name, table_name, "
         "schema_counter, n_rows, n_bytes, columns, from_source, hits, "
         "tick, created")

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


# -- payload size -----------------------------------------------------------

def _json_cell(value: Any) -> Any:
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    return str(value)


def _payload_size(vector: DataVector,
                 rows: Sequence[Sequence[Any]]) -> tuple[int, int]:
    """``(n_rows, n_bytes)`` of a vector holding ``rows``.

    ``n_bytes`` is the serialised payload size, the unit of the
    eviction budget: the JSON of the column metadata plus one compact
    JSON line per row.  One C-encoded ``json.dumps`` of all rows yields
    the lines' total (``"[" + ",".join(lines) + "]"`` is one byte
    longer than the lines with their newlines).
    """
    header = json.dumps(
        {"columns": columns_to_json(vector.columns),
         "from_source": vector.from_source},
        sort_keys=True, separators=(",", ":"), default=str)
    if not rows:
        return 0, len(header)
    body = json.dumps(rows, separators=(",", ":"), default=_json_cell)
    return len(rows), len(header) + len(body) - 1


@dataclass(frozen=True)
class CacheEntry:
    """One row of ``pb_query_cache`` (metadata of one cached vector).

    ``family`` groups a source's entries across run sets (the key
    without the run set); it is empty for downstream elements.
    ``schema_counter`` is the counter the entry was recorded under.
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
        self._ready = False
        self._metrics = MetricsView()

    @property
    def session(self) -> dict[str, int]:
        """``hits``/``misses``/``stores``/``evictions`` counted by the
        process since this cache was created (other caches' included;
        the persistent per-entry hit counts live in the metadata
        table)."""
        moved = self._metrics.current()
        return {what: moved.counter(f"qcache.{what}").value
                for what in ("hits", "misses", "stores", "evictions")}

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
                "hits INTEGER, tick INTEGER, created TEXT)")
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
            tick=int(row[12]), created=row[13] or "")

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

    def lookup_structural(self, keys: Sequence[str]
                          ) -> dict[str, CacheEntry]:
        """Entries under any of ``keys``, by key.

        One ``SELECT`` finds the metadata rows and one catalogue check
        their payload tables.  A row whose payload table is missing
        (e.g. dropped behind perfbase's back) is healed — deleted —
        and reads as absent.  Neither counts nor touches
        (:meth:`touch` does).
        """
        keys = sorted(set(keys))
        if not keys:
            return {}
        with self._lock:
            self._ensure()
            rows = self.db.fetchall(
                f"SELECT {_COLS} FROM {CACHE_TABLE} WHERE key IN "
                f"({', '.join(['?'] * len(keys))})", keys)
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
                          from_source=entry.from_source,
                          producer=entry.element)

    # -- store ------------------------------------------------------------

    def put(self, key: str, element: "QueryElement", vector: DataVector,
            *, schema_counter: int, family: str = "",
            query_name: str = "") -> CacheEntry:
        """Persist an element's output vector under ``key``.

        Storing a source entry (one with a ``family``) drops the
        source's entries under other run sets: no later run can look
        them up again unless it matches exactly those runs.
        """
        with self._lock:
            self._ensure()
            return _retry_locked(lambda: self._put_locked(
                key, element, vector, schema_counter=schema_counter,
                family=family, query_name=query_name))

    def _put_locked(self, key: str, element: "QueryElement",
                    vector: DataVector, *, schema_counter: int,
                    family: str, query_name: str) -> CacheEntry:
        if _faults.ACTIVE is not None:
            # inside the retried function: injected transient locks
            # exercise the retry path, injected crashes abandon the
            # store mid-way (fsck repairs the leftovers)
            _faults.ACTIVE.check("cache.put", key=key,
                                 element=element.name)
        existing = self.db.fetchone(
            f"SELECT {_COLS} FROM {CACHE_TABLE} WHERE key=?", (key,))
        if existing is not None and self.db.table_exists(existing[5]):
            return self._entry(existing)  # concurrent producer won
        table = CACHE_PREFIX + key[:24]
        self.db.drop_table(table)
        self.db.create_table(
            table, [(c.name, sql_type(c.datatype))
                    for c in vector.columns])
        rows = vector.rows()
        if vector.db is self.db:
            cols = ", ".join(quote_identifier(c.name)
                             for c in vector.columns)
            self.db.execute(
                f"INSERT INTO {quote_identifier(table)} ({cols}) "
                f"SELECT {cols} FROM {quote_identifier(vector.table)}")
        elif rows:
            self.db.insert_rows(table, vector.column_names, rows)
        n_rows, n_bytes = _payload_size(vector, rows)
        tick = self._next_tick()
        created = _dt.datetime.now().strftime("%Y-%m-%d %H:%M:%S")
        self.db.execute(
            f"INSERT INTO {CACHE_TABLE} ({_COLS}) VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
            "ON CONFLICT(key) DO UPDATE SET table_name="
            "excluded.table_name, tick=excluded.tick",
            (key, family, element.name, element.kind, query_name,
             table, int(schema_counter), n_rows, n_bytes,
             json.dumps(columns_to_json(vector.columns),
                        sort_keys=True, default=str),
             1 if vector.from_source else 0, 0, tick, created))
        if family:
            self._drop_entries(self.db.fetchall(
                f"SELECT key, table_name FROM {CACHE_TABLE} "
                "WHERE family=? AND key<>?", (family, key)))
        self.db.commit()
        count("qcache.stores")
        entry = self.lookup_entry(key)
        self._evict_locked()
        return entry

    def lookup_entry(self, key: str) -> CacheEntry:
        """Metadata row by key, without touching LRU state/counters."""
        row = self.db.fetchone(
            f"SELECT {_COLS} FROM {CACHE_TABLE} WHERE key=?", (key,))
        if row is None:
            raise KeyError(key)
        return self._entry(row)

    # -- invalidation / eviction ------------------------------------------

    def prune_stale(self, current: int | None = None) -> int:
        """Drop source entries recorded under an older schema counter.

        Their keys fold the schema counter, so after a variable change
        or a data-changing repair they can never be looked up again —
        this reclaims the space early instead of waiting for LRU.
        Downstream entries are left to LRU.
        """
        with self._lock:
            self._ensure()
            if current is None:
                current = self.store.schema_counter()
            rows = self.db.fetchall(
                f"SELECT key, table_name FROM {CACHE_TABLE} "
                "WHERE from_source=1 AND schema_counter<?",
                (int(current),))

            def drop():
                self._drop_entries(rows)
                self.db.commit()
            if rows:
                _retry_locked(drop)
            return len(rows)

    def _evict_locked(self) -> list[str]:
        if self.budget_bytes is None:
            return []
        total = int(self.db.fetchone(
            f"SELECT COALESCE(SUM(n_bytes), 0) FROM {CACHE_TABLE}")[0])
        evicted: list[str] = []
        while total > self.budget_bytes:
            row = self.db.fetchone(
                f"SELECT key, table_name, n_bytes FROM {CACHE_TABLE} "
                "ORDER BY tick LIMIT 1")
            if row is None:
                break
            self._drop_entries([row[:2]])
            total -= int(row[2])
            evicted.append(row[0])
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
                "COALESCE(SUM(n_rows), 0), COALESCE(SUM(hits), 0) "
                f"FROM {CACHE_TABLE}")
            return {
                "entries": int(row[0]),
                "bytes": int(row[1]),
                "rows": int(row[2]),
                "hits_total": int(row[3]),
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
    holds every element's key, ``hits`` the entries installed instead
    of running, ``skipped`` the elements that never run; every other
    element runs, and each cacheable one that does is a miss
    (:meth:`is_miss`) stored by :meth:`put`.  Without a cache the plan
    is empty and nothing is a miss.  ``run_sets`` holds the
    run-selection rows each source was keyed by — the runs it must
    read (:attr:`~repro.query.elements.QueryContext.run_sets`), so a
    run imported meanwhile cannot enter an entry whose key does not
    name it.
    """

    qcache: QueryCache | None
    schema_counter: int
    keys: dict[str, str]
    #: source name -> family key (its key without the run set)
    families: dict[str, str]
    run_sets: dict[str, list[tuple]]
    hits: dict[str, CacheEntry]
    skipped: frozenset[str]

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
                        family=self.families.get(element.name, ""),
                        query_name=query_name)


def plan_cached_run(qcache: QueryCache | None, graph: "QueryGraph",
                    experiment: "Experiment") -> CachePlan:
    """Key every element, probe all keys at once, and decide what runs.

    Without a cache (``qcache`` is ``None``) everything runs: the plan
    is empty and no statement is issued.

    Source entries of an older schema counter are pruned first.  Each
    source's run-selection statement then runs once, here; its rows
    enter the source's key.  One batched probe
    (:meth:`QueryCache.lookup_structural`) finds every entry.

    Walking the graph from the sinks, an element is *needed* when it
    is a sink or some consumer runs.  Every cacheable element with an
    entry is a *hit*, needed or not: it is installed instead of run,
    counted and touched (an unneeded hit still costs no execution, and
    its vector keeps the run's result complete).  A needed element
    without an entry is a *miss* and runs; an unneeded one without an
    entry is skipped and not counted — a hit thus prunes the exclusive
    ancestors it makes unnecessary.
    """
    if qcache is None:
        return CachePlan(None, 0, {}, {}, {}, {}, frozenset())
    schema = qcache.store.schema_counter()
    qcache.prune_stale(schema)
    run_sets = {source.name: source.run_selection(experiment)
                for source in graph.sources}
    keys = graph.fingerprints(
        {"experiment": experiment.name, "schema": schema},
        {name: {"runs": rows} for name, rows in run_sets.items()})
    families = {source.name: source.fingerprint(
        [], {"experiment": experiment.name}) for source in graph.sources}
    order = list(reversed(graph.topological_order()))
    found = qcache.lookup_structural(
        [keys[e.name] for e in order if e.cacheable])
    runs: set[str] = set()
    hits: dict[str, CacheEntry] = {}
    skipped: set[str] = set()
    misses = 0
    for element in order:
        name = element.name
        entry = found.get(keys[name]) if element.cacheable else None
        consumers = graph.consumers(name)
        needed = not consumers or not runs.isdisjoint(consumers)
        if entry is not None:
            hits[name] = entry
        elif not element.cacheable or needed:
            runs.add(name)
            if element.cacheable:
                misses += 1
        else:
            skipped.add(name)
    qcache.touch(list(hits.values()))
    count("qcache.misses", misses)
    return CachePlan(qcache, schema, keys, families, run_sets, hits,
                     frozenset(skipped))
