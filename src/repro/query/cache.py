"""Persistent, content-addressed cache of query-element output vectors.

The incremental query engine: perfbase's dominant workload is re-running
the *same query specification* against an experiment that grew by a few
runs (the Section 5 analyses are regenerated after every import), so the
engine should not redo work whose inputs did not change.

Two-layer fingerprint scheme
----------------------------

*Structural keys* (``skey``) come from
:meth:`~repro.query.graph.QueryGraph.fingerprints`: the hash of an
element's own spec combined with its producers' fingerprints, with the
experiment identity and **data version** folded into the input-free
elements.  One structural hit therefore proves the *whole subgraph*
below the element unchanged — the engine installs the cached vector and
skips the element together with all of its exclusive ancestors.

*Result-chained keys* (the primary ``key``) chain actual content: a
source's key hashes its spec with the experiment identity and data
version; a downstream element's key hashes its spec with the *content
hashes* of its real input vectors.  After an import bumps the data
version every structural key changes and every source re-executes — but
a source whose output comes out byte-identical reproduces its old
content hash, so every downstream element still hits.  Untouched
subgraphs stay warm across imports.

Storage
-------

Cached vectors are materialised as ``pbc_<hash>`` tables inside the
experiment database (so they survive across processes and are reachable
from every executor), described by one row each in the
``pb_query_cache`` metadata table.  Eviction is LRU under a configurable
byte budget, ordered by a deterministic monotonic ``tick`` counter.

Observability: ``qcache.hits`` / ``qcache.misses`` / ``qcache.stores`` /
``qcache.evictions`` counters on the active tracer's metrics registry,
and a ``cache="hit"|"miss"`` span attribute per element (rendered by
``perfbase explain --trace``).
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence, TypeVar

from .. import faults as _faults
from ..core.datatypes import DataType, sql_type
from ..db.backend import quote_identifier
from ..db.retry import RetryPolicy
from ..db.schema import ExperimentStore, _unit_from_json, _unit_to_json
from ..obs.tracer import count, maybe_span
from .vectors import ColumnInfo, DataVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.experiment import Experiment
    from .elements import QueryElement
    from .graph import QueryGraph

__all__ = ["QueryCache", "CacheEntry", "CachePlan", "CACHE_TABLE",
           "CACHE_PREFIX", "DEFAULT_BUDGET_BYTES", "cache_key",
           "content_fingerprint", "columns_to_json", "columns_from_json",
           "plan_cached_run"]

CACHE_TABLE = "pb_query_cache"
CACHE_PREFIX = "pbc_"
#: default LRU byte budget of one experiment's vector cache
DEFAULT_BUDGET_BYTES = 64 * 1024 * 1024

_COLS = ("key, skey, element, kind, query_name, table_name, "
         "result_hash, data_version, n_rows, n_bytes, columns, "
         "from_source, hits, tick, created")

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


# -- content hashing ------------------------------------------------------

def _cell(value: Any) -> Any:
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    return value


def content_fingerprint(vector: DataVector) -> tuple[str, int, int]:
    """``(hash, n_rows, n_bytes)`` of a vector's content.

    The hash covers the column metadata (names, datatypes, units,
    synopses, result flags), the ``from_source`` flag and every row in
    table order — two vectors with equal fingerprints are
    interchangeable as element inputs.  ``n_bytes`` is the serialised
    payload size, the unit of the eviction budget.
    """
    digest = hashlib.sha256()
    header = json.dumps(
        {"columns": columns_to_json(vector.columns),
         "from_source": vector.from_source},
        sort_keys=True, separators=(",", ":"), default=str)
    digest.update(header.encode("utf-8"))
    n_bytes = len(header)
    n_rows = 0
    for row in vector.rows():
        line = json.dumps([_cell(v) for v in row],
                          separators=(",", ":"), default=str)
        digest.update(b"\n")
        digest.update(line.encode("utf-8"))
        n_bytes += len(line) + 1
        n_rows += 1
    return digest.hexdigest(), n_rows, n_bytes


def cache_key(element: "QueryElement",
              input_hashes: Sequence[str | None], *,
              data_version: int,
              experiment_name: str) -> str | None:
    """Result-chained cache key of one element execution.

    ``None`` when the element is uncacheable or an input's content hash
    is unknown (its producer was skipped or uncacheable).
    """
    if not element.cacheable:
        return None
    hashes = list(input_hashes)
    if any(h is None for h in hashes):
        return None
    extra = None
    if not element.inputs:
        extra = {"experiment": experiment_name,
                 "data_version": int(data_version)}
    return element.fingerprint(hashes, extra)


@dataclass(frozen=True)
class CacheEntry:
    """One row of ``pb_query_cache`` (metadata of one cached vector)."""

    key: str
    skey: str
    element: str
    kind: str
    query_name: str
    table: str
    result_hash: str
    data_version: int
    n_rows: int
    n_bytes: int
    columns: tuple[ColumnInfo, ...]
    from_source: bool
    hits: int
    tick: int
    created: str


class QueryCache:
    """The per-experiment element-result cache.

    Lives inside the experiment database (``pbc_<hash>`` payload tables
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
        #: this-session counters (the persistent per-entry hit counts
        #: live in the metadata table)
        self.session = {"hits": 0, "misses": 0, "stores": 0,
                        "evictions": 0}

    # -- infrastructure ---------------------------------------------------

    def _ensure(self) -> None:
        if self._ready:
            return
        _retry_locked(self._ensure_tables)
        self._ready = True

    def _ensure_tables(self) -> None:
        self.db.execute(
            f"CREATE TABLE IF NOT EXISTS {CACHE_TABLE} ("
            "key TEXT PRIMARY KEY, skey TEXT, element TEXT, "
            "kind TEXT, query_name TEXT, table_name TEXT, "
            "result_hash TEXT, data_version INTEGER, "
            "n_rows INTEGER, n_bytes INTEGER, columns TEXT, "
            "from_source INTEGER, hits INTEGER, tick INTEGER, "
            "created TEXT)")
        self.db.execute(
            f"CREATE INDEX IF NOT EXISTS {CACHE_TABLE}_skey "
            f"ON {CACHE_TABLE} (skey)")
        self.db.commit()

    def data_version(self) -> int:
        return self.store.data_version()

    def _count(self, what: str, metric: str) -> None:
        self.session[what] += 1
        count(metric)

    def _next_tick(self) -> int:
        row = self.db.fetchone(
            f"SELECT COALESCE(MAX(tick), 0) + 1 FROM {CACHE_TABLE}")
        return int(row[0])

    @staticmethod
    def _entry(row: Sequence[Any]) -> CacheEntry:
        return CacheEntry(
            key=row[0], skey=row[1] or "", element=row[2], kind=row[3],
            query_name=row[4] or "", table=row[5], result_hash=row[6],
            data_version=int(row[7]), n_rows=int(row[8]),
            n_bytes=int(row[9]),
            columns=tuple(columns_from_json(json.loads(row[10]))),
            from_source=bool(row[11]), hits=int(row[12]),
            tick=int(row[13]), created=row[14] or "")

    # -- lookup -----------------------------------------------------------

    def lookup(self, key: str | None, *,
               refresh_skey: str | None = None) -> CacheEntry | None:
        """Entry under a result-chained ``key``, bumping LRU state.

        A hit refreshes the entry's structural key to ``refresh_skey``
        when given — after an import re-validated the chain, the next
        run's structural pass finds the entry again directly.
        """
        if key is None:
            return None
        with self._lock:
            self._ensure()
            return self._hit_or_miss(
                self.db.fetchone(
                    f"SELECT {_COLS} FROM {CACHE_TABLE} WHERE key=?",
                    (key,)),
                refresh_skey=refresh_skey)

    def lookup_structural(self, skey: str, *,
                          count: bool = True) -> CacheEntry | None:
        """Entry whose structural key matches (whole-subgraph address)."""
        with self._lock:
            self._ensure()
            row = self.db.fetchone(
                f"SELECT {_COLS} FROM {CACHE_TABLE} WHERE skey=? "
                "ORDER BY tick DESC LIMIT 1", (skey,))
            if not count and row is None:
                return None
            return self._hit_or_miss(row)

    def _hit_or_miss(self, row: Sequence[Any] | None, *,
                     refresh_skey: str | None = None
                     ) -> CacheEntry | None:
        if row is not None and not self.db.table_exists(row[5]):
            # metadata without payload (e.g. external table drop): heal
            def heal():
                self.db.execute(
                    f"DELETE FROM {CACHE_TABLE} WHERE key=?", (row[0],))
                self.db.commit()
            _retry_locked(heal)
            row = None
        if row is None:
            self._count("misses", "qcache.misses")
            return None
        entry = self._entry(row)

        def touch():
            tick = self._next_tick()
            if refresh_skey is not None and refresh_skey != entry.skey:
                self.db.execute(
                    f"UPDATE {CACHE_TABLE} SET hits=hits+1, tick=?, "
                    "skey=?, data_version=? WHERE key=?",
                    (tick, refresh_skey, self.data_version(),
                     entry.key))
            else:
                self.db.execute(
                    f"UPDATE {CACHE_TABLE} SET hits=hits+1, tick=? "
                    "WHERE key=?", (tick, entry.key))
            self.db.commit()
        _retry_locked(touch)
        self._count("hits", "qcache.hits")
        return entry

    def load(self, entry: CacheEntry) -> DataVector:
        """Materialise a :class:`DataVector` view of a cached entry."""
        return DataVector(self.db, entry.table, list(entry.columns),
                          from_source=entry.from_source,
                          producer=entry.element)

    # -- store ------------------------------------------------------------

    def put(self, key: str, skey: str, element: "QueryElement",
            vector: DataVector, *, result_hash: str, n_rows: int,
            n_bytes: int, data_version: int,
            query_name: str = "") -> CacheEntry:
        """Persist an element's output vector under both keys."""
        with self._lock:
            self._ensure()
            return _retry_locked(lambda: self._put_locked(
                key, skey, element, vector, result_hash=result_hash,
                n_rows=n_rows, n_bytes=n_bytes,
                data_version=data_version, query_name=query_name))

    def _put_locked(self, key: str, skey: str,
                    element: "QueryElement", vector: DataVector, *,
                    result_hash: str, n_rows: int, n_bytes: int,
                    data_version: int, query_name: str) -> CacheEntry:
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
        names = [quote_identifier(c.name) for c in vector.columns]
        if vector.db is self.db:
            cols = ", ".join(names)
            self.db.execute(
                f"INSERT INTO {quote_identifier(table)} ({cols}) "
                f"SELECT {cols} FROM {quote_identifier(vector.table)}")
        else:
            rows = vector.rows()
            if rows:
                self.db.insert_rows(table, vector.column_names, rows)
        tick = self._next_tick()
        created = _dt.datetime.now().strftime("%Y-%m-%d %H:%M:%S")
        self.db.execute(
            f"INSERT INTO {CACHE_TABLE} ({_COLS}) VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
            "ON CONFLICT(key) DO UPDATE SET table_name="
            "excluded.table_name, tick=excluded.tick",
            (key, skey, element.name, element.kind, query_name,
             table, result_hash, int(data_version), int(n_rows),
             int(n_bytes),
             json.dumps(columns_to_json(vector.columns),
                        sort_keys=True, default=str),
             1 if vector.from_source else 0, 0, tick, created))
        self.db.commit()
        self._count("stores", "qcache.stores")
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

    def prune_stale(self, current_version: int | None = None) -> int:
        """Drop source entries recorded under an older data version.

        Their keys fold the data version, so after any mutation they
        can never be looked up again — this reclaims the space early
        instead of waiting for LRU.  Downstream entries are kept: they
        stay reachable through result-chaining whenever their input
        content proves unchanged.
        """
        with self._lock:
            self._ensure()
            if current_version is None:
                current_version = self.data_version()
            rows = self.db.fetchall(
                f"SELECT key, table_name FROM {CACHE_TABLE} "
                "WHERE from_source=1 AND data_version<?",
                (int(current_version),))

            def drop():
                for key, table in rows:
                    self.db.drop_table(table)
                    self.db.execute(
                        f"DELETE FROM {CACHE_TABLE} WHERE key=?",
                        (key,))
                if rows:
                    self.db.commit()
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
            self.db.drop_table(row[1])
            self.db.execute(
                f"DELETE FROM {CACHE_TABLE} WHERE key=?", (row[0],))
            total -= int(row[2])
            evicted.append(row[0])
            self._count("evictions", "qcache.evictions")
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
                "data_version": self.data_version(),
                "session": dict(self.session),
            }


# -- one cached run ----------------------------------------------------------

@dataclass
class CachePlan:
    """How one query run uses the cache — shared by the serial engine
    and the parallel executor.

    Built by :func:`plan_cached_run`: ``hits`` are the structural hits
    (installed instead of running), ``skipped`` the exclusive ancestors
    of cached subgraphs (never run), and everything else runs unless
    :meth:`probe` finds a result-chained hit right before it would.
    ``hashes`` holds the content hash of every completed producer; an
    element only runs after its producers completed, so workers of a
    parallel run never read a hash that is still being written.
    """

    qcache: QueryCache
    experiment_name: str
    data_version: int
    structural: dict[str, str]
    hits: dict[str, CacheEntry]
    skipped: frozenset[str]
    #: structural keys already probed and missed (not probed again)
    probed_misses: frozenset[str]
    hashes: dict[str, str]

    def probe(self, element: "QueryElement"
              ) -> tuple[str | None, CacheEntry | None]:
        """``(result-chained key, entry)`` of an element about to run;
        the entry is ``None`` on a miss, the key ``None`` when the
        result cannot be cached (uncacheable element or an input
        without content hash)."""
        name = element.name
        if name in self.hits:
            return None, self.hits[name]
        key = cache_key(element, [self.hashes.get(i)
                                  for i in element.inputs],
                        data_version=self.data_version,
                        experiment_name=self.experiment_name)
        if key is None or key in self.probed_misses:
            return key, None
        return key, self.qcache.lookup(
            key, refresh_skey=self.structural[name])

    def load(self, element: "QueryElement",
             entry: CacheEntry) -> DataVector:
        """Serve ``element`` from the cache.  Its span
        (``cache="hit"``) encloses the load, like an executed
        element's span encloses its run."""
        with maybe_span(element.name, kind=element.kind, cache="hit",
                        rows=entry.n_rows, cols=len(entry.columns)):
            vector = self.qcache.load(entry)
        self.hashes[element.name] = entry.result_hash
        return vector

    def produced(self, element: "QueryElement", vector: DataVector
                 ) -> tuple[str, int, int]:
        """Note a cacheable element's fresh output; returns its
        :func:`content_fingerprint` for :meth:`put`."""
        fingerprint = content_fingerprint(vector)
        self.hashes[element.name] = fingerprint[0]
        return fingerprint

    def put(self, key: str | None, element: "QueryElement",
            vector: DataVector, fingerprint: tuple[str, int, int],
            query_name: str) -> None:
        """Store a miss under both of its keys."""
        if key is None:
            return
        result_hash, n_rows, n_bytes = fingerprint
        self.qcache.put(key, self.structural[element.name], element,
                        vector, result_hash=result_hash, n_rows=n_rows,
                        n_bytes=n_bytes, data_version=self.data_version,
                        query_name=query_name)


def plan_cached_run(qcache: QueryCache, graph: "QueryGraph",
                    experiment: "Experiment") -> CachePlan:
    """Resolve structural fingerprints in reverse topological order.

    Stale source entries are pruned first.  An element is *needed*
    when it is a sink or some consumer runs; a needed element that
    hits is installed from the cache, one that misses runs, and an
    unneeded one without an entry is skipped — a structural hit thus
    prunes the element together with its exclusive ancestors.  Only
    needed probes count as hits or misses.
    """
    data_version = experiment.store.data_version()
    qcache.prune_stale(data_version)
    structural = graph.fingerprints({"experiment": experiment.name,
                                     "data_version": data_version})
    runs: set[str] = set()
    hits: dict[str, CacheEntry] = {}
    skipped: set[str] = set()
    misses: set[str] = set()
    for element in reversed(graph.topological_order()):
        name = element.name
        if not element.cacheable:
            runs.add(name)
            continue
        consumers = graph.consumers(name)
        needed = not consumers or not runs.isdisjoint(consumers)
        entry = qcache.lookup_structural(structural[name], count=needed)
        if entry is not None:
            hits[name] = entry
        elif needed:
            runs.add(name)
            misses.add(structural[name])
        else:
            skipped.add(name)
    return CachePlan(qcache, experiment.name, data_version, structural,
                     hits, frozenset(skipped), frozenset(misses),
                     {name: entry.result_hash
                      for name, entry in hits.items()})
