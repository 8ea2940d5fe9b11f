"""Crash recovery: detect and repair interrupted experiment state.

The experiment database is "the single point of truth" — so state left
behind by a process that died mid-operation must be findable and
repairable.  :func:`fsck` (exposed as ``perfbase fsck``) scans one
experiment database for every damage class an interrupted import,
query, cache store or run deletion can leave behind, and repairs them
in place (or only reports them with ``repair=False`` / ``--dry-run``).

Repair matrix
-------------

===================  ===============================================
finding              repair
===================  ===============================================
``temp-table``       leaked query temp table (``pbtmp_*`` /
                     ``pbq_*`` / ``pbnode*``) that is not idle in
                     the handle's temp-table pool: dropped
``orphan-cache``     ``pbc_*`` payload table without its
                     ``pb_query_cache`` metadata row (crash between
                     table creation and metadata commit): dropped
``cache-no-table``   ``pb_query_cache`` row whose payload table is
                     missing: row deleted
``orphan-files``     ``pb_run_files`` row naming a run index absent
                     from ``pb_runs`` (interrupted batch): deleted
``orphan-once``      ``pb_once`` row naming a run index absent from
                     ``pb_runs``: deleted
``run-no-data``      active ``pb_runs`` row whose ``rundata_<i>``
                     table is missing: run deactivated (same end
                     state as ``delete_run``)
``orphan-rundata``   ``rundata_<i>`` table without an active
                     ``pb_runs`` row (interrupted delete): dropped
===================  ===============================================

Repairs that change visible run data (``orphan-files``, ``orphan-once``,
``run-no-data``, ``orphan-rundata``) bump the experiment's schema
counter, so the incremental query engine's invalidation contract keeps
holding after a repair.  Cache-side repairs do not: the keys of
surviving entries are still valid.

All repairs are idempotent — running :func:`fsck` twice is safe, and a
second pass on a repaired database reports a clean bill.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..core.errors import DatabaseError
from .retry import retry_locked
from .schema import ExperimentStore

__all__ = ["Finding", "FsckReport", "fsck", "TEMP_TABLE_PREFIXES"]

#: prefixes of query temp tables (TempTableManager default, serial
#: engine ``pbq_<query>``, parallel node managers ``pbnode<i>``)
TEMP_TABLE_PREFIXES = ("pbtmp_", "pbq_", "pbnode")

_CACHE_TABLE = "pb_query_cache"
_CACHE_PREFIX = "pbc_"
_RUNDATA_RE = re.compile(r"^rundata_(\d+)$")


@dataclass(frozen=True)
class Finding:
    """One detected damage instance."""

    category: str   #: repair-matrix key, e.g. ``orphan-cache``
    detail: str     #: human-readable description of the damage
    action: str     #: what the repair does (did, when ``repaired``)
    repaired: bool  #: whether the repair was applied

    def __str__(self) -> str:
        verb = "repaired" if self.repaired else "would repair"
        return f"[{self.category}] {self.detail} — {verb}: {self.action}"


@dataclass
class FsckReport:
    """Outcome of one :func:`fsck` pass."""

    experiment: str
    findings: list[Finding] = field(default_factory=list)
    #: whether repairs were applied (False for a dry run)
    repaired: bool = False

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_category(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.category] = counts.get(finding.category,
                                                  0) + 1
        return counts

    def summary(self) -> str:
        """ASCII report for ``perfbase fsck``."""
        mode = "repair" if self.repaired else "dry-run"
        lines = [f"fsck {self.experiment} ({mode}): "
                 + ("clean" if self.clean
                    else f"{len(self.findings)} finding(s)")]
        lines.extend(f"  {finding}" for finding in self.findings)
        return "\n".join(lines)


class _Pass:
    """One fsck execution over one experiment store."""

    def __init__(self, store: ExperimentStore, repair: bool):
        self.store = store
        self.db = store.db
        self.repair = repair
        self.findings: list[Finding] = []
        self._data_changed = False

    def note(self, category: str, detail: str, action: str, *,
             data_changed: bool = False) -> bool:
        """Record a finding; returns True when the caller should apply
        the repair now."""
        self.findings.append(Finding(category=category, detail=detail,
                                     action=action,
                                     repaired=self.repair))
        if self.repair and data_changed:
            self._data_changed = True
        return self.repair

    # -- damage classes ---------------------------------------------------

    def temp_tables(self) -> None:
        # an idle table of the handle's pool is released, not leaked:
        # empty, and leased again by the next query that needs it
        pool = self.db.temp_pool
        for table in self.db.list_tables():
            if table.startswith(TEMP_TABLE_PREFIXES) \
                    and not pool.is_idle(table):
                if self.note("temp-table",
                             f"leaked query temp table {table!r}",
                             f"drop {table}"):
                    self.db.drop_table(table)

    def cache_tables(self) -> None:
        known: set[str] = set()
        if self.db.table_exists(_CACHE_TABLE):
            rows = self.db.fetchall(
                f"SELECT key, table_name FROM {_CACHE_TABLE}")
            for key, table in rows:
                known.add(table)
                if not self.db.table_exists(table):
                    if self.note(
                            "cache-no-table",
                            f"cache entry {key[:12]}… has no payload "
                            f"table {table!r}",
                            "delete metadata row"):
                        self.db.execute(
                            f"DELETE FROM {_CACHE_TABLE} WHERE key=?",
                            (key,))
        for table in self.db.list_tables():
            if table.startswith(_CACHE_PREFIX) and table not in known:
                if self.note(
                        "orphan-cache",
                        f"cache payload table {table!r} has no "
                        f"{_CACHE_TABLE} row",
                        f"drop {table}"):
                    self.db.drop_table(table)

    def run_rows(self) -> None:
        run_indices = {int(r[0]) for r in self.db.fetchall(
            "SELECT run_index FROM pb_runs")}
        active = {int(r[0]) for r in self.db.fetchall(
            "SELECT run_index FROM pb_runs WHERE active=1")}

        orphan_files = sorted(
            int(r[0]) for r in self.db.fetchall(
                "SELECT DISTINCT run_index FROM pb_run_files")
            if int(r[0]) not in run_indices)
        for index in orphan_files:
            if self.note("orphan-files",
                         f"pb_run_files rows for nonexistent run "
                         f"{index}",
                         "delete rows", data_changed=True):
                self.db.execute(
                    "DELETE FROM pb_run_files WHERE run_index=?",
                    (index,))

        orphan_once = sorted(
            int(r[0]) for r in self.db.fetchall(
                "SELECT run_index FROM pb_once")
            if int(r[0]) not in run_indices)
        for index in orphan_once:
            if self.note("orphan-once",
                         f"pb_once row for nonexistent run {index}",
                         "delete row", data_changed=True):
                self.db.execute(
                    "DELETE FROM pb_once WHERE run_index=?", (index,))

        rundata: dict[int, str] = {}
        for table in self.db.list_tables():
            match = _RUNDATA_RE.match(table)
            if match:
                rundata[int(match.group(1))] = table

        for index in sorted(active):
            if index not in rundata:
                if self.note(
                        "run-no-data",
                        f"active run {index} has no rundata_{index} "
                        "table",
                        "deactivate run", data_changed=True):
                    self.db.execute(
                        "UPDATE pb_runs SET active=0 WHERE "
                        "run_index=?", (index,))
                    self.db.execute(
                        "DELETE FROM pb_once WHERE run_index=?",
                        (index,))

        for index in sorted(rundata):
            if index not in active:
                if self.note(
                        "orphan-rundata",
                        f"table {rundata[index]!r} has no active "
                        "pb_runs row",
                        f"drop {rundata[index]}", data_changed=True):
                    self.db.drop_table(rundata[index])

    # -- driver -----------------------------------------------------------

    def run(self) -> FsckReport:
        if not self.store.is_initialised:
            raise DatabaseError(
                "fsck: database holds no initialised experiment "
                "(no pb_meta table)")
        name = self.store.get_meta("name", "?")
        self.temp_tables()
        self.cache_tables()
        self.run_rows()
        if self.repair and self.findings:
            if self._data_changed:
                # repairs changed visible run data: advance the schema
                # counter so cached query results are invalidated
                self.store.bump_schema_counter()
            retry_locked(self.db.commit, site="fsck")
            self.store.invalidate_variables_cache()
        return FsckReport(experiment=str(name),
                          findings=self.findings,
                          repaired=self.repair)


def fsck(store: ExperimentStore, *, repair: bool = True) -> FsckReport:
    """Scan ``store`` for interrupted state; repair unless told not to.

    See the module docs for the damage classes and their repairs.
    """
    return _Pass(store, repair).run()
