"""The central perfbase abstraction: the experiment.

"The central idea within perfbase is the *experiment*.  An experiment is
the software, or more generally the system, to be evaluated." (Section 3)

:class:`Experiment` is the facade the rest of the library (import engine,
query engine, status retrieval, CLI) works against.  It combines

* the *definition* (variables + meta info, Section 3.1),
* the *storage* (an :class:`~repro.db.schema.ExperimentStore`),
* the *access control* (user classes of Section 4.2).

Experiments are created on / opened from a
:class:`~repro.db.backend.DatabaseServer`.
"""

from __future__ import annotations

import getpass
from datetime import datetime
from typing import Any, Iterable

from ..db.backend import DatabaseServer
from ..db.schema import ExperimentStore
from .access import AccessControl, UserClass
from .meta import ExperimentInfo, Person
from .run import RunData, RunRecord
from .variables import Parameter, Result, Variable, VariableSet

__all__ = ["Experiment", "current_user"]


def current_user() -> str:
    """Name of the acting OS user (perfbase used the login name)."""
    try:
        return getpass.getuser()
    except Exception:  # pragma: no cover - exotic environments
        return "unknown"


class Experiment:
    """One experiment: definition, stored runs and access control."""

    def __init__(self, name: str, store: ExperimentStore,
                 user: str | None = None):
        self.name = name
        self.store = store
        self.user = user or current_user()
        self._variables: VariableSet | None = None
        self._access: AccessControl | None = None

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(cls, server: DatabaseServer, name: str,
               variables: Iterable[Variable] = (),
               info: ExperimentInfo | None = None,
               user: str | None = None) -> "Experiment":
        """``perfbase setup``: create and initialise a new experiment."""
        db = server.create_database(name)
        store = ExperimentStore(db)
        store.initialise(name)
        exp = cls(name, store, user)
        varset = VariableSet(list(variables))
        store.save_variables(varset)
        exp._variables = varset
        info = info or ExperimentInfo(performed_by=Person(exp.user))
        store.set_meta("info", info.as_dict())
        access = AccessControl()
        store.set_meta("access", access.as_dict())
        store.set_meta("created", datetime.now().isoformat())
        store.set_meta("backend",
                       getattr(server, "backend_name", "sqlite"))
        exp._access = access
        return exp

    @classmethod
    def open(cls, server: DatabaseServer, name: str,
             user: str | None = None) -> "Experiment":
        """Open an existing experiment from a server."""
        db = server.open_database(name)
        return cls(name, ExperimentStore(db), user)

    @classmethod
    def drop(cls, server: DatabaseServer, name: str,
             user: str | None = None) -> None:
        """``perfbase delete``: destroy an experiment database."""
        exp = cls.open(server, name, user)
        exp._check(UserClass.ADMIN, "delete experiment")
        exp.close()
        server.drop_database(name)

    def close(self) -> None:
        self.store.db.close()

    # -- definition access -----------------------------------------------

    @property
    def variables(self) -> VariableSet:
        if self._variables is None:
            self._variables = self.store.load_variables()
        return self._variables

    @property
    def info(self) -> ExperimentInfo:
        return ExperimentInfo.from_dict(self.store.get_meta("info", {}))

    def set_info(self, info: ExperimentInfo) -> None:
        self._check(UserClass.ADMIN, "change meta information")
        self.store.set_meta("info", info.as_dict())

    @property
    def access(self) -> AccessControl:
        if self._access is None:
            self._access = AccessControl.from_dict(
                self.store.get_meta("access", {}))
        return self._access

    def reload_access(self) -> AccessControl:
        """Re-read the access table from storage, dropping the cached
        copy — a grant/revoke by another handle of the same experiment
        (e.g. another service session) takes effect immediately."""
        self._access = None
        return self.access

    def _check(self, needed: UserClass, operation: str) -> None:
        self.access.check(self.user, needed, operation)

    # -- evolution (Section 3.1) --------------------------------------------

    def add_variable(self, var: Variable) -> None:
        """Add a parameter or result to a live experiment."""
        self._check(UserClass.ADMIN, f"add variable {var.name!r}")
        self.store.add_variable(var)
        self._variables = None

    def add_parameter(self, name: str, **kwargs) -> Parameter:
        param = Parameter(name=name, **kwargs)
        self.add_variable(param)
        return param

    def add_result(self, name: str, **kwargs) -> Result:
        result = Result(name=name, **kwargs)
        self.add_variable(result)
        return result

    def remove_variable(self, name: str) -> None:
        self._check(UserClass.ADMIN, f"remove variable {name!r}")
        self.store.remove_variable(name)
        self._variables = None

    def modify_variable(self, var: Variable) -> None:
        self._check(UserClass.ADMIN, f"modify variable {var.name!r}")
        self.store.modify_variable(var)
        self._variables = None

    def grant(self, user: str, user_class: UserClass | str) -> None:
        self._check(UserClass.ADMIN, f"grant access to {user!r}")
        access = self.access
        access.grant(user, user_class)
        # the granting admin keeps admin rights when leaving open access
        if self.user not in access.users:
            access.users[self.user] = UserClass.ADMIN
        self.store.set_meta("access", access.as_dict())

    def revoke(self, user: str) -> None:
        self._check(UserClass.ADMIN, f"revoke access of {user!r}")
        access = self.access
        access.revoke(user)
        self.store.set_meta("access", access.as_dict())

    # -- runs ---------------------------------------------------------------

    def store_run(self, run: RunData, *,
                  require_all: bool = False,
                  use_defaults: bool = True) -> int:
        """Validate and persist a run; returns its index.

        ``require_all`` / ``use_defaults`` implement the missing-content
        policies of Section 3.2 (discard vs default vs leave empty).
        Inside an open :meth:`batch` the run joins the batch's
        transaction instead of committing on its own.
        """
        self._check(UserClass.INPUT, "import run data")
        run.validate(self.variables, require_all=require_all,
                     use_defaults=use_defaults)
        return self.store.store_run(run, self.variables)

    def store_validated_run(self, run: RunData) -> int:
        """Persist a run that :meth:`RunData.validate` already
        normalised against :attr:`variables`; returns its index.

        The import engines validate each run themselves (they need the
        missing-content list for their report), so the run is not
        validated a second time here.
        """
        self._check(UserClass.INPUT, "import run data")
        return self.store.store_run(run, self.variables)

    def batch(self):
        """A storage batch: many :meth:`store_run` calls, one
        transaction (see :class:`repro.db.BatchContext`)."""
        self._check(UserClass.INPUT, "import run data")
        return self.store.batch()

    def run_indices(self) -> list[int]:
        self._check(UserClass.QUERY, "list runs")
        return self.store.run_indices()

    def run_record(self, index: int) -> RunRecord:
        self._check(UserClass.QUERY, "inspect run")
        return self.store.run_record(index)

    def run_records(self) -> list[RunRecord]:
        """All active runs' records in a constant number of SQL
        statements (the status-retrieval fast path)."""
        self._check(UserClass.QUERY, "list runs")
        return self.store.run_records()

    def load_run(self, index: int) -> RunData:
        self._check(UserClass.QUERY, "read run data")
        return self.store.load_run(index)

    def delete_run(self, index: int) -> None:
        self._check(UserClass.ADMIN, "delete run")
        self.store.delete_run(index)

    def n_runs(self) -> int:
        return self.store.n_runs()

    # -- incremental query cache -------------------------------------------

    def query_cache(self, *, budget_bytes: int | None = None
                    ) -> "QueryCache":
        """The experiment's persistent element-result cache.

        Lives inside the experiment database (``pbc_`` tables +
        ``pb_query_cache`` metadata), shared across processes.  Pass it
        to ``Query.execute(cache=...)``/the parallel executor, or use
        ``cache=True`` there for this default instance.
        """
        self._check(UserClass.QUERY, "use the query cache")
        from ..query.cache import DEFAULT_BUDGET_BYTES, QueryCache
        if budget_bytes is None:
            budget_bytes = DEFAULT_BUDGET_BYTES
        return QueryCache(self.store, budget_bytes=budget_bytes)

    # -- description -------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Structured summary used by ``perfbase info``."""
        info = self.info
        return {
            "name": self.name,
            "synopsis": info.synopsis,
            "project": info.project,
            "performed_by": info.performed_by.as_dict(),
            "created": self.store.get_meta("created"),
            "backend": self.store.get_meta("backend") or "sqlite",
            "n_runs": self.n_runs(),
            "parameters": [v.name for v in self.variables.parameters],
            "results": [v.name for v in self.variables.results],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Experiment({self.name!r}, {len(self.variables)} vars, "
                f"{self.n_runs()} runs)")
