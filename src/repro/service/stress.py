"""Concurrent-client stress harness for the experiment service.

Multi-client DBMS benchmarking literature measures what matters for a
shared server: throughput and correctness *under concurrent sessions*.
This harness simulates hundreds of clients — query, input and admin
users in paper-Section-4.2 proportions — hammering several experiment
shards through one :class:`~repro.service.ExperimentService`, optionally
under an injected fault plan (:mod:`repro.faults`), and then proves

* **zero lost runs** — every run a client saw commit is present with
  exactly the payload the client wrote;
* **zero corrupted/phantom runs** — the database holds no run any
  client did not successfully store;
* **result-identity with the direct path** — reading through a service
  session returns byte-for-byte what ``Experiment.open`` on a fresh
  direct connection returns;
* **graceful degradation** — admission rejections show up in the
  ``service.rejections`` counter on the rejected client only, never as
  exceptions in unrelated clients.

Used by ``tests/service`` and the ``perfbase service stress`` CLI
smoke in ``scripts/check.sh``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..core.access import UserClass
from ..core.errors import (AccessError, DatabaseError, PerfbaseError,
                           ServiceUnavailable)
from ..core.experiment import Experiment
from ..core.run import RunData
from ..core.datatypes import DataType
from ..core.variables import Occurrence, Parameter, Result
from ..db import server_for_backend
from ..faults import FaultPlan, use_faults
from .core import ExperimentService, ServiceConfig

__all__ = ["StressOptions", "StressReport", "run_stress"]

#: role mix per 10 clients: the paper's many-readers/some-writers shape
_ROLE_PATTERN = (UserClass.QUERY, UserClass.INPUT, UserClass.QUERY,
                 UserClass.INPUT, UserClass.QUERY, UserClass.ADMIN,
                 UserClass.QUERY, UserClass.INPUT, UserClass.QUERY,
                 UserClass.INPUT)


@dataclass(frozen=True)
class StressOptions:
    """Shape of one stress run."""

    clients: int = 200
    shards: int = 4
    ops_per_client: int = 3
    faults: str | None = None      #: a FaultPlan spec, e.g. "lock@db.run:p=.02"
    seed: int = 0
    config: ServiceConfig | None = None
    shard_prefix: str = "stress"


@dataclass
class StressReport:
    """Outcome of a stress run (see module docs for the invariants)."""

    clients: int
    shards: int
    ops_attempted: int = 0
    ops_completed: int = 0
    stored_runs: int = 0
    verified_runs: int = 0
    failed_ops: int = 0        #: faults/errors surfaced to the acting client
    denied_ops: int = 0        #: AccessError denials (expected for query users)
    rejections: int = 0        #: ServiceUnavailable admissions/checkouts
    wall_s: float = 0.0
    identity_ok: bool = False
    problems: list[str] = field(default_factory=list)
    service_stats: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.identity_ok and not self.problems

    def as_dict(self) -> dict[str, Any]:
        return {
            "clients": self.clients, "shards": self.shards,
            "ops_attempted": self.ops_attempted,
            "ops_completed": self.ops_completed,
            "stored_runs": self.stored_runs,
            "verified_runs": self.verified_runs,
            "failed_ops": self.failed_ops,
            "denied_ops": self.denied_ops,
            "rejections": self.rejections,
            "wall_s": self.wall_s,
            "identity_ok": self.identity_ok,
            "problems": self.problems[:20],
            "service_stats": self.service_stats,
        }


def _shard_variables():
    return [
        Parameter("client", datatype=DataType.STRING,
                  synopsis="writing client id"),
        Parameter("op", datatype=DataType.INTEGER,
                  occurrence=Occurrence.MULTIPLE),
        Result("marker", datatype=DataType.FLOAT,
               occurrence=Occurrence.MULTIPLE,
               synopsis="deterministic payload checksum"),
    ]


def _marker(client: int, op: int, shard: int) -> float:
    """Deterministic payload a verifier can recompute."""
    return float(client * 10_000 + op * 100 + shard) + 0.5


def _make_run(client: int, op: int, shard: int) -> RunData:
    return RunData(once={"client": f"c{client:04d}"},
                   datasets=[{"op": op,
                              "marker": _marker(client, op, shard)}])


def _create_shards(server, opts: StressOptions,
                   users: dict[str, UserClass]) -> list[str]:
    names = [f"{opts.shard_prefix}_{i:02d}" for i in range(opts.shards)]
    for name in names:
        exp = Experiment.create(server, name, _shard_variables(),
                                user="svc_admin")
        access = exp.access
        access.grant("svc_admin", UserClass.ADMIN)
        for user, klass in users.items():
            access.users[user] = klass
        exp.store.set_meta("access", access.as_dict())
        if server.independent_connections:
            exp.close()
    return names


def run_stress(directory: str | None = None, *,
               backend: str = "sqlite",
               server=None,
               options: StressOptions | None = None) -> StressReport:
    """Run the stress scenario and verify the invariants.

    ``server`` overrides directory/backend resolution (tests pass a
    fresh in-memory server).  The service under test is closed before
    the function returns; verification happens on direct connections
    while the plan's faults are already deactivated.
    """
    opts = options or StressOptions()
    if server is None:
        server = server_for_backend(backend, directory)
    users = {}
    roles = {}
    for i in range(opts.clients):
        role = _ROLE_PATTERN[i % len(_ROLE_PATTERN)]
        name = f"{role.name.lower()}_{i:04d}"
        users[name] = role
        roles[i] = (name, role)
    shard_names = _create_shards(server, opts, users)

    report = StressReport(clients=opts.clients, shards=opts.shards)
    service = ExperimentService(directory, server=server,
                                config=opts.config or ServiceConfig())
    recorded: list[tuple[str, int, float]] = []   # (shard, run_index, marker)
    lock = threading.Lock()
    plan = FaultPlan.parse(opts.faults) if opts.faults else None

    def client(i: int) -> None:
        user, role = roles[i]
        local_recorded = []
        completed = failed = denied = rejected = 0
        for op_i in range(opts.ops_per_client):
            shard = shard_names[(i + op_i) % len(shard_names)]
            try:
                with service.session(user) as session:
                    if role >= UserClass.INPUT:
                        idx = session.store_run(
                            shard, _make_run(i, op_i, int(shard[-2:])))
                        local_recorded.append(
                            (shard, idx, _marker(i, op_i,
                                                 int(shard[-2:]))))
                    else:
                        session.n_runs(shard)
                        if op_i == 0:
                            # a query user's write MUST be denied
                            try:
                                session.store_run(
                                    shard, _make_run(i, op_i, 0))
                            except AccessError:
                                denied += 1
                            else:
                                with lock:
                                    report.problems.append(
                                        f"query user {user} stored a "
                                        f"run in {shard}")
                        else:
                            session.run_records(shard)
                    completed += 1
            except ServiceUnavailable:
                rejected += 1
            except (OSError, DatabaseError):
                # an injected io/lock fault that exhausted its retries
                # surfaced to *this* client; nothing may be stored
                failed += 1
            except PerfbaseError as exc:  # unexpected: a real bug
                with lock:
                    report.problems.append(
                        f"client {i} ({user}) got {type(exc).__name__}: "
                        f"{exc}")
        with lock:
            recorded.extend(local_recorded)
            report.ops_attempted += opts.ops_per_client
            report.ops_completed += completed
            report.failed_ops += failed
            report.denied_ops += denied
            report.rejections += rejected

    threads = [threading.Thread(target=client, args=(i,), name=f"cl{i}")
               for i in range(opts.clients)]
    start = time.perf_counter()
    try:
        with use_faults(plan):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
    finally:
        report.wall_s = time.perf_counter() - start
    report.stored_runs = len(recorded)

    # result-identity: reading through a service session must return
    # exactly what a fresh direct connection returns (faults are off)
    try:
        from ..testing.differential import assert_identical
        for shard in shard_names:
            direct = Experiment.open(server, shard, user="svc_admin")
            try:
                direct_view = [(r.index, r.n_datasets)
                               for r in direct.store.run_records()]
            finally:
                if server.independent_connections:
                    direct.close()
            with service.session("svc_admin") as session:
                service_view = [(r.index, r.n_datasets)
                                for r in session.run_records(shard)]
            assert_identical(direct_view, service_view,
                             f"{shard}.run_records")
    except AssertionError as exc:
        report.problems.append(f"service/direct mismatch: {exc}")
    finally:
        report.service_stats = service.stats()
        service.close(evict_memory=False)

    _verify(server, shard_names, recorded, report)
    return report


def _verify(server, shard_names, recorded, report: StressReport) -> None:
    """Direct-path verification: lost, phantom and corrupted runs."""
    expected: dict[str, dict[int, float]] = {n: {} for n in shard_names}
    for shard, idx, marker in recorded:
        if idx in expected[shard]:
            report.problems.append(
                f"{shard}: run index {idx} handed to two clients")
        expected[shard][idx] = marker

    verified = 0
    for shard in shard_names:
        exp = Experiment.open(server, shard, user="svc_admin")
        try:
            indices = sorted(exp.store.run_indices())
            want = sorted(expected[shard])
            if indices != want:
                lost = sorted(set(want) - set(indices))
                phantom = sorted(set(indices) - set(want))
                report.problems.append(
                    f"{shard}: lost runs {lost[:5]}, "
                    f"phantom runs {phantom[:5]}")
                continue
            for idx in indices:
                run = exp.store.load_run(idx)
                markers = [ds["marker"] for ds in run.datasets]
                if markers != [expected[shard][idx]]:
                    report.problems.append(
                        f"{shard}: run {idx} corrupted "
                        f"(markers {markers!r})")
                else:
                    verified += 1
        finally:
            if server.independent_connections:
                exp.close()
    report.verified_runs = verified
    report.identity_ok = not report.problems
