"""The multi-tenant experiment service: sessions, admission, shards.

Section 4.2 describes a shared frontend database server which "multiple
users can access ... in a protected manner" through the query / input /
admin user classes.  :class:`ExperimentService` is that front door: a
single in-process object multiplexing many concurrent clients over many
experiments.

Three mechanisms, layered:

admission (backpressure)
    A bounded number of concurrent :class:`Session` objects
    (``max_sessions``).  When the service is saturated, a new client
    waits in a bounded admission queue — the wait is driven by the
    shared :class:`~repro.db.retry.RetryPolicy` (bounded deterministic
    exponential backoff, guaranteed post-deadline final attempt), so
    the queueing behaviour is as reproducible as every other retry
    site — and degrades gracefully to
    :class:`~repro.core.errors.ServiceUnavailable` instead of an
    unbounded pile-up.  Rejections surface as ``service.rejections``
    counters, never as exceptions in *other* clients.

shard routing (scale-out)
    Every experiment is one shard — naturally so: the SQLite backend
    stores one database file per experiment, the in-memory backend one
    :class:`~repro.db.memory_backend.MemoryDatabase` per experiment
    resolved through :func:`~repro.db.memory_backend.memory_server_for`.
    Each shard owns a bounded pool of open experiment handles
    (``connections_per_shard``); backends whose server hands out one
    shared connection per experiment (``independent_connections`` is
    false) are pinned to a pool width of 1, which serialises whole
    operations instead of interleaving transactions on a shared
    connection.

admission control (protection)
    Every operation re-reads the experiment's access table and checks
    the session user's class *before* the operation reaches the db
    layer — so a ``revoke`` issued by an admin in one session takes
    effect on another session's very next operation.

Observability: ``service.*`` counters and gauges on the process
metrics registry (:data:`repro.obs.metrics.REGISTRY`), which
:meth:`ExperimentService.stats` reports as the difference since the
service was created, plus ``service.session`` / ``service.op`` spans so
``perfbase trace-view`` shows session lifetimes with the operations
nested inside them.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

from ..core.access import UserClass
from ..core.errors import ServiceError, ServiceUnavailable
from ..core.experiment import Experiment, current_user
from ..core.meta import ExperimentInfo
from ..core.run import RunData, RunRecord
from ..core.variables import Variable
from ..db import server_for_backend
from ..db.backend import DatabaseServer
from ..db.retry import DEFAULT_POLICY, RetryPolicy
from ..obs.metrics import MetricsView, count, gauge_add
from ..obs.tracer import maybe_span

__all__ = ["ServiceConfig", "ExperimentService", "Session"]


class _Saturated(Exception):
    """Internal: no free slot right now (retried by the policy)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Sizing and timing knobs of an :class:`ExperimentService`.

    ``max_sessions`` bounds concurrently admitted sessions;
    ``admission_timeout`` is how long a client waits in the admission
    queue (and for a shard connection) before the service degrades to
    :class:`~repro.core.errors.ServiceUnavailable`.
    ``connections_per_shard`` sizes each per-experiment handle pool on
    backends with independent connections (see ``docs/service.md`` for
    sizing guidance).  ``retry`` is the policy wrapping retryable
    operations *and* pacing the admission queue's backoff.  By default
    its deadline, not an attempt count, ends the retries: the pooled
    handles of one shard contend for SQLite's write lock, a batch that
    loses the read-to-write upgrade fails at once rather than waiting,
    and under the 200-client stress run a dozen quick attempts ran out
    within half a second.
    """

    max_sessions: int = 64
    admission_timeout: float = 5.0
    connections_per_shard: int = 4
    retry: RetryPolicy = field(default_factory=lambda: replace(
        DEFAULT_POLICY, max_attempts=1_000_000))

    def admission_policy(self, timeout: float | None = None) -> RetryPolicy:
        """The retry policy pacing one admission wait.

        Reuses ``retry``'s backoff shape but with the admission timeout
        as the deadline and an attempt bound high enough that the
        deadline, not the attempt count, ends the wait.
        """
        deadline = self.admission_timeout if timeout is None else timeout
        return replace(self.retry, deadline=deadline,
                       max_attempts=1_000_000)


class _Shard:
    """One experiment's bounded pool of open handles."""

    def __init__(self, service: "ExperimentService", name: str):
        self.service = service
        self.name = name
        self.width = (service.config.connections_per_shard
                      if service.server.independent_connections else 1)
        self._slots = threading.BoundedSemaphore(self.width)
        self._lock = threading.Lock()
        self._idle: list[Experiment] = []
        self.opened = 0
        self.retired = False

    @contextlib.contextmanager
    def handle(self, user: str, timeout: float):
        """Check out an experiment handle bound to ``user``.

        Handles are exclusive while checked out, so rebinding
        ``Experiment.user`` is safe; they return to the pool on the
        way out (after a best-effort rollback if the operation died,
        so a broken transaction never leaks into the next client).
        """
        if not self._slots.acquire(timeout=timeout):
            count("service.pool_timeouts")
            raise ServiceUnavailable(
                f"shard {self.name!r} saturated: no connection within "
                f"{timeout:.3g}s")
        try:
            with self._lock:
                if self.retired:
                    raise ServiceError(
                        f"shard {self.name!r} has been retired")
                exp = self._idle.pop() if self._idle else None
            if exp is None:
                exp = Experiment.open(self.service.server, self.name)
                with self._lock:
                    self.opened += 1
            exp.user = user
            # a pooled handle may predate schema evolution performed
            # through a sibling handle — decode definitions fresh once
            # per checkout (still amortised over the whole operation)
            exp._variables = None
            exp.store.invalidate_variables_cache()
            try:
                yield exp
            except BaseException:
                with contextlib.suppress(Exception):
                    exp.store.db.rollback()
                raise
            finally:
                with self._lock:
                    if self.retired:
                        self._close_handle(exp)
                    else:
                        self._idle.append(exp)
        finally:
            self._slots.release()

    def _close_handle(self, exp: Experiment) -> None:
        # closing a shared connection (pool width 1 on backends
        # without independent connections) would close the backing
        # database for everyone; the server reopens it on demand, but
        # only file-backed handles are truly ours to close
        if self.service.server.independent_connections:
            with contextlib.suppress(Exception):
                exp.close()

    def retire(self) -> int:
        """Close all idle handles and refuse future checkouts."""
        with self._lock:
            self.retired = True
            idle, self._idle = self._idle, []
        for exp in idle:
            self._close_handle(exp)
        return len(idle)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {"width": self.width, "opened": self.opened,
                    "idle": len(self._idle), "retired": self.retired}


class ExperimentService:
    """A shared front door over the experiments of one directory.

    Construct from a directory + backend (mirroring the CLI's
    ``--dbdir``/``--backend``), or pass an explicit ``server``.  Open
    sessions with :meth:`session`; every data access then flows
    session → admission check → shard pool → storage.
    """

    def __init__(self, directory: str | None = None, *,
                 backend: str = "sqlite",
                 server: DatabaseServer | None = None,
                 config: ServiceConfig | None = None):
        if server is None:
            if directory is None:
                raise ServiceError(
                    "ExperimentService needs a directory or a server")
            server = server_for_backend(backend, directory)
        self.server = server
        self.directory = directory
        self.backend_name = getattr(server, "backend_name", backend)
        self.config = config or ServiceConfig()
        self._slots = threading.BoundedSemaphore(self.config.max_sessions)
        self._shards: dict[str, _Shard] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: what the process registry records while the service is open
        self._metrics = MetricsView()

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceUnavailable("service has been shut down")

    # -- admission ---------------------------------------------------------

    def session(self, user: str | None = None, *,
                timeout: float | None = None) -> "Session":
        """Admit a client and return its :class:`Session`.

        Blocks in the bounded admission queue for at most ``timeout``
        seconds (default: the config's ``admission_timeout``), then
        raises :class:`~repro.core.errors.ServiceUnavailable`.
        """
        self._check_open()
        user = user or current_user()
        policy = self.config.admission_policy(timeout)

        def attempt() -> None:
            self._check_open()
            if not self._slots.acquire(blocking=False):
                raise _Saturated()

        depth = gauge_add("service.queue_depth", 1)
        try:
            policy.run(attempt, site="service.admit",
                       classify=lambda exc: isinstance(exc, _Saturated))
        except _Saturated:
            count("service.rejections")
            raise ServiceUnavailable(
                f"service saturated: no session slot within "
                f"{policy.deadline:.3g}s", queue_depth=int(depth)) from None
        finally:
            gauge_add("service.queue_depth", -1)
        count("service.sessions_total")
        gauge_add("service.sessions_open", 1)
        return Session(self, user)

    def _release_session(self) -> None:
        self._slots.release()
        gauge_add("service.sessions_open", -1)

    # -- shard routing -----------------------------------------------------

    def shard(self, experiment: str) -> _Shard:
        with self._lock:
            self._check_open()
            shard = self._shards.get(experiment)
            if shard is None or shard.retired:
                shard = _Shard(self, experiment)
                self._shards[experiment] = shard
                count("service.shards_opened")
            return shard

    def retire_shard(self, experiment: str) -> None:
        """Close an experiment's pooled handles (data stays intact)."""
        with self._lock:
            shard = self._shards.pop(experiment, None)
        if shard is not None:
            shard.retire()
            count("service.shards_retired")

    def experiments(self) -> list[str]:
        """Names of the experiments this service can route to."""
        return self.server.list_databases()

    # -- experiment lifecycle ---------------------------------------------

    def create_experiment(self, name: str,
                          variables: Iterable[Variable] = (),
                          info: ExperimentInfo | None = None,
                          user: str | None = None) -> None:
        """Create a shard (a fresh experiment is open-access until its
        creator grants explicit rights)."""
        self._check_open()
        exp = Experiment.create(self.server, name, variables, info,
                                user or current_user())
        if self.server.independent_connections:
            exp.close()
        count("service.experiments_created")

    # -- shutdown ----------------------------------------------------------

    def close(self, *, evict_memory: bool = True) -> None:
        """Retire every shard and refuse new sessions.

        With ``evict_memory`` (the default) a ``memory``-backend
        service also evicts its directory's entry from the
        process-global registry — the shard-lifecycle counterpart of
        :func:`~repro.db.memory_backend.evict_memory_server`, without
        which every service over a fresh directory would leak its
        databases for the lifetime of the process.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            shards = list(self._shards.values())
            self._shards.clear()
        for shard in shards:
            shard.retire()
        if (evict_memory and self.backend_name == "memory"
                and self.directory is not None):
            from ..db.memory_backend import evict_memory_server
            evict_memory_server(self.directory)

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Structured snapshot for ``perfbase service stat``.

        ``counters`` and ``gauges`` are what the process registry
        recorded since the service was created, by every thread and
        every other service of the process too; the service's own two
        gauges are listed even when they did not move.
        """
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {"service.sessions_open": 0,
                                    "service.queue_depth": 0}
        for name, snap in self._metrics.snapshot().items():
            into = gauges if snap["type"] == "gauge" else counters
            into[name] = snap["value"]
        with self._lock:
            shards = {name: shard.stats()
                      for name, shard in self._shards.items()}
        return {
            "backend": self.backend_name,
            "directory": self.directory,
            "closed": self._closed,
            "config": {
                "max_sessions": self.config.max_sessions,
                "admission_timeout": self.config.admission_timeout,
                "connections_per_shard":
                    self.config.connections_per_shard,
            },
            "counters": counters,
            "gauges": gauges,
            "shards": shards,
        }


class Session:
    """One admitted client, bound to a user identity.

    Not thread-safe: a session belongs to one client thread (open one
    session per worker).  Every method re-checks the user's class
    against the experiment's *current* access table, then runs the
    operation on a pooled shard handle.  Sessions are context
    managers; closing releases the admission slot.
    """

    def __init__(self, service: ExperimentService, user: str):
        self.service = service
        self.user = user
        self._closed = False
        # the session span outlives the caller's scope, and sessions may
        # close in any order: open it in a private copy of the context,
        # so it never becomes (or, on close, resets) the caller's
        # current span; operations name it as their parent instead
        self._span_context = contextvars.copy_context()
        self._span_cm = maybe_span("service.session", kind="service",
                                   user=user)
        self._span = self._span_context.run(self._span_cm.__enter__)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._span_context.run(self._span_cm.__exit__, None, None, None)
        self.service._release_session()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the admission-controlled choke point ------------------------------

    def _op(self, experiment: str, needed, operation: str,
            fn: Callable[[Experiment], Any], *,
            retryable: bool = False) -> Any:
        if self._closed:
            raise ServiceError("session is closed")
        self.service._check_open()
        config = self.service.config
        with maybe_span("service.op", kind="service", parent=self._span,
                        op=operation, experiment=experiment,
                        user=self.user):
            shard = self.service.shard(experiment)
            with shard.handle(self.user,
                              config.admission_timeout) as exp:
                # admission control at the session boundary: the class
                # check runs against a freshly loaded access table, so
                # a revocation in another session bites on this
                # session's next operation (the read is idempotent,
                # hence always retryable under lock contention)
                access = config.retry.run(exp.reload_access,
                                          site="service.access")
                access.check(self.user, needed, operation)
                count(f"service.ops.{needed.name.lower()}")
                if retryable:
                    return config.retry.run(lambda: fn(exp),
                                            site="service.op")
                return fn(exp)

    # -- read paths (query users) ------------------------------------------

    def run_indices(self, experiment: str) -> list[int]:
        return self._op(experiment, UserClass.QUERY, "list runs",
                        lambda exp: exp.store.run_indices(),
                        retryable=True)

    def run_records(self, experiment: str) -> list[RunRecord]:
        return self._op(experiment, UserClass.QUERY, "list runs",
                        lambda exp: exp.store.run_records(),
                        retryable=True)

    def load_run(self, experiment: str, index: int) -> RunData:
        return self._op(experiment, UserClass.QUERY, "read run data",
                        lambda exp: exp.store.load_run(index),
                        retryable=True)

    def n_runs(self, experiment: str) -> int:
        return self._op(experiment, UserClass.QUERY, "count runs",
                        lambda exp: exp.store.n_runs(),
                        retryable=True)

    def describe(self, experiment: str) -> dict[str, Any]:
        return self._op(experiment, UserClass.QUERY,
                        "describe experiment",
                        lambda exp: exp.describe(), retryable=True)

    def execute(self, experiment: str, query, **kwargs) -> Any:
        """Run a query (``repro.query.Query``) against a shard."""
        return self._op(experiment, UserClass.QUERY,
                        f"execute query {query.name!r}",
                        lambda exp: query.execute(exp, **kwargs))

    # -- input paths (input users) -----------------------------------------

    def store_run(self, experiment: str, run: RunData, *,
                  require_all: bool = False,
                  use_defaults: bool = True) -> int:

        def fn(exp: Experiment) -> int:
            # one-run batch: full rollback on failure makes the store
            # atomic, which in turn makes the retry wrapper safe
            with exp.store.batch() as batch:
                run.validate(exp.variables, require_all=require_all,
                             use_defaults=use_defaults)
                return batch.store_run(run)

        return self._op(experiment, UserClass.INPUT, "import run data",
                        fn, retryable=True)

    def import_files(self, experiment: str, paths, description=None,
                     **importer_kwargs) -> Any:
        """Import input files (``repro.parse.Importer`` semantics)."""
        from ..parse.importer import Importer

        def fn(exp: Experiment) -> Any:
            importer = Importer(exp, description, **importer_kwargs)
            return importer.import_files(paths)

        return self._op(experiment, UserClass.INPUT, "import run data",
                        fn)

    def import_text(self, experiment: str, text: str,
                    description=None, filename: str = "<service>",
                    **importer_kwargs) -> Any:
        from ..parse.importer import Importer

        def fn(exp: Experiment) -> Any:
            importer = Importer(exp, description, **importer_kwargs)
            return importer.import_text(text, filename)

        return self._op(experiment, UserClass.INPUT, "import run data",
                        fn)

    # -- admin paths (admin users) -----------------------------------------

    def delete_run(self, experiment: str, index: int) -> None:
        self._op(experiment, UserClass.ADMIN, "delete run",
                 lambda exp: exp.store.delete_run(index))

    def add_variable(self, experiment: str, var: Variable) -> None:
        self._op(experiment, UserClass.ADMIN,
                 f"add variable {var.name!r}",
                 lambda exp: exp.store.add_variable(var))

    def remove_variable(self, experiment: str, name: str) -> None:
        self._op(experiment, UserClass.ADMIN,
                 f"remove variable {name!r}",
                 lambda exp: exp.store.remove_variable(name))

    def modify_variable(self, experiment: str, var: Variable) -> None:
        self._op(experiment, UserClass.ADMIN,
                 f"modify variable {var.name!r}",
                 lambda exp: exp.store.modify_variable(var))

    def grant(self, experiment: str, user: str, user_class) -> None:
        self._op(experiment, UserClass.ADMIN,
                 f"grant access to {user!r}",
                 lambda exp: exp.grant(user, user_class))

    def revoke(self, experiment: str, user: str) -> None:
        self._op(experiment, UserClass.ADMIN,
                 f"revoke access of {user!r}",
                 lambda exp: exp.revoke(user))

    def delete_experiment(self, experiment: str) -> None:
        """Drop a whole experiment and retire its shard."""
        self._op(experiment, UserClass.ADMIN, "delete experiment",
                 lambda exp: None)  # admission check only
        self.service.retire_shard(experiment)
        Experiment.drop(self.service.server, experiment, self.user)
