"""Cross-backend differential test harness.

Backend equivalence is a mechanically checked property: any scenario —
a query battery, an importer round-trip, schema evolution, fsck, a
fault-injection run — is executed once per storage backend against
freshly built servers, and the outcomes are asserted *identical*,
including Python value types (``2`` is not ``2.0``: REAL-affinity
conversion differences between backends would otherwise hide here).

Adding a backend to the battery is one line in
:data:`BACKEND_FACTORIES`; every differential test then runs against
it automatically.

Typical use::

    def scenario(server, backend):
        exp = fill_simple(make_simple_experiment(server))
        return query_outcome(exp, my_query())

    run_differential(scenario)
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from ..db import DatabaseServer, MemoryDatabaseServer, MemoryServer
from ..db.schema import ExperimentStore

__all__ = [
    "BACKEND_FACTORIES", "DIFF_BACKENDS", "DifferentialMismatch",
    "assert_identical", "assert_vectors_identical", "make_server",
    "query_outcome", "run_differential", "snapshot_result",
    "snapshot_store", "snapshot_vector",
]

#: backend name -> zero-argument server factory.  ``sqlite`` uses the
#: in-memory flavour of the SQLite backend (same dialect and semantics
#: as the file-backed server, no disk churn in tests).  A future
#: PostgreSQL dialect layer plugs in with one more entry here.
BACKEND_FACTORIES: dict[str, Callable[[], DatabaseServer]] = {
    "sqlite": MemoryServer,
    "memory": MemoryDatabaseServer,
}

#: the backends every differential scenario runs on, reference first
DIFF_BACKENDS: tuple[str, ...] = ("sqlite", "memory")


class DifferentialMismatch(AssertionError):
    """Two backends produced observably different results."""


def make_server(backend: str) -> DatabaseServer:
    """A fresh, empty server of the named backend."""
    return BACKEND_FACTORIES[backend]()


# -- structural comparison ---------------------------------------------------


def assert_identical(reference: Any, candidate: Any,
                     context: str = "outcome") -> None:
    """Recursively assert two outcome structures are identical.

    Comparison is *type-sensitive* on scalars: ``1`` vs ``1.0`` or
    ``"5"`` vs ``5`` is a mismatch even though ``==`` holds — exactly
    the class of dialect drift the harness exists to catch.
    """
    if isinstance(reference, Mapping) and isinstance(candidate, Mapping):
        if set(reference) != set(candidate):
            raise DifferentialMismatch(
                f"{context}: key sets differ: "
                f"{sorted(map(str, reference))} != "
                f"{sorted(map(str, candidate))}")
        for key in reference:
            assert_identical(reference[key], candidate[key],
                             f"{context}[{key!r}]")
        return
    if (isinstance(reference, (list, tuple))
            and isinstance(candidate, (list, tuple))):
        if len(reference) != len(candidate):
            raise DifferentialMismatch(
                f"{context}: lengths differ: "
                f"{len(reference)} != {len(candidate)}")
        for index, (a, b) in enumerate(zip(reference, candidate)):
            assert_identical(a, b, f"{context}[{index}]")
        return
    if type(reference) is not type(candidate):
        raise DifferentialMismatch(
            f"{context}: types differ: "
            f"{type(reference).__name__}({reference!r}) != "
            f"{type(candidate).__name__}({candidate!r})")
    if reference != candidate:
        raise DifferentialMismatch(
            f"{context}: values differ: {reference!r} != {candidate!r}")


# -- snapshots ---------------------------------------------------------------


def snapshot_vector(vector) -> dict[str, Any]:
    """A comparable snapshot of a :class:`~repro.query.DataVector`."""
    return {
        "columns": [(c.name, c.datatype, str(c.unit), c.is_result)
                    for c in vector.columns],
        "rows": [tuple(row) for row in vector.rows()],
    }


def assert_vectors_identical(reference, candidate,
                             context: str = "vector") -> None:
    assert_identical(snapshot_vector(reference),
                     snapshot_vector(candidate), context)


def snapshot_result(result) -> dict[str, Any]:
    """A comparable snapshot of a :class:`~repro.query.QueryResult`."""
    return {
        "vectors": {name: snapshot_vector(vector)
                    for name, vector in result.vectors.items()},
        "artifacts": {artifact.name: artifact.content
                      for artifact in result.artifacts},
    }


def snapshot_store(store: ExperimentStore) -> dict[str, Any]:
    """A comparable snapshot of everything an experiment stores.

    Wall-clock run timestamps are excluded (two builds can never agree
    on them); everything else — variables, run data, once-values, file
    provenance — must round-trip identically through any backend.
    """
    records = []
    for record in store.run_records():
        records.append({
            "index": record.index,
            "source_files": tuple(record.source_files),
            "n_datasets": record.n_datasets,
            "once": dict(record.once),
        })
    runs = {}
    for index in store.run_indices():
        run = store.load_run(index)
        runs[index] = [dict(dataset) for dataset in run.datasets]
    return {
        "variables": [(v.name, v.datatype.name, v.occurrence.name,
                       str(v.unit), v.is_result)
                      for v in store.load_variables()],
        "records": records,
        "runs": runs,
    }


# -- execution helpers -------------------------------------------------------


def query_outcome(experiment, query, *, cache=None,
                  parallel: int = 0,
                  pushdown: bool = False) -> dict[str, Any]:
    """Execute a query and snapshot its result.

    ``parallel=N`` runs it on a simulated N-node cluster through the
    parallel executor (exercising the attach-or-fallback vector
    shipping); otherwise the serial engine is used.  ``pushdown``
    enables SQL chain fusion; note that a fused run's snapshot omits
    the vectors of absorbed interior elements (they were never
    materialised) — compare name-by-name against an unfused snapshot,
    not whole-dict.
    """
    if parallel:
        from ..parallel import ParallelQueryExecutor, SimulatedCluster
        cluster = SimulatedCluster(parallel)
        result, _stats = ParallelQueryExecutor(cluster).execute(
            query, experiment, cache=cache, keep_temp_tables=True,
            pushdown=pushdown)
        snapshot = snapshot_result(result)
        cluster.shutdown()
        return snapshot
    result = query.execute(experiment, cache=cache,
                           keep_temp_tables=True, pushdown=pushdown)
    return snapshot_result(result)


def run_differential(
        scenario: Callable[[DatabaseServer, str], Any],
        backends: Sequence[str] = DIFF_BACKENDS) -> dict[str, Any]:
    """Run ``scenario`` once per backend and assert identical outcomes.

    ``scenario(server, backend)`` receives a fresh server and the
    backend's name, and returns any structure of dicts/sequences/
    scalars.  The first backend is the reference; every other backend's
    outcome must match it exactly.  Returns all outcomes by backend.
    """
    outcomes = {backend: scenario(make_server(backend), backend)
                for backend in backends}
    reference = backends[0]
    for backend in backends[1:]:
        assert_identical(outcomes[reference], outcomes[backend],
                         f"{reference} vs {backend}")
    return outcomes
