"""Deterministic fault injection for robustness testing.

The paper positions the experiment database as "the single point of
truth" for long-lived measurement campaigns — which makes the *unhappy*
paths (a run dying mid-import, a query crashing mid-teardown, two
processes contending for the database file) exactly the ones that must
be exercised.  This module provides seedable, reproducible fault
injection threaded through the storage, import, cache and parallel
layers, following the tracer's zero-overhead-when-disabled pattern:
every hook site reads one module attribute (``faults.ACTIVE``) and the
disabled path stays the pre-instrumentation code.

Fault kinds
-----------

``lock``
    A transient SQLite lock (:class:`TransientLockFault`, an
    ``sqlite3.OperationalError``) — the condition the shared retry
    policy of :mod:`repro.db.retry` recovers from.
``io``
    An I/O error (:class:`InjectedIOError`, an ``OSError``) — e.g. an
    unreadable input file mid-batch-import.
``crash``
    Simulated process death (:class:`CrashFault`).  Derives from
    ``BaseException`` so ordinary ``except Exception`` error handling
    cannot swallow it — the in-flight transaction is simply abandoned,
    exactly like a killed process.  ``perfbase fsck``
    (:mod:`repro.db.recovery`) repairs what such a crash leaves behind.
``node_death``
    A simulated cluster-node failure (:class:`NodeDeathFault`).  The
    parallel executor degrades gracefully: the dead node's remaining
    elements are re-placed on the surviving nodes.
``latency``
    A planted slowdown: the check *sleeps* for the rule's ``ms``
    milliseconds instead of raising — the only fault kind that returns
    normally.  This is how a Fig-8 style performance bug is injected
    for the regression sentinel (``perfbase check``): a rule like
    ``latency@db.run:ms=25`` makes every matching database statement
    slower without changing any result.

Activation
----------

Programmatic::

    plan = FaultPlan.parse("lock@db.run:times=3")
    with use_faults(plan):
        ...

or via the environment (picked up by the CLI entry point)::

    PERFBASE_FAULTS="seed=7;crash@db.commit:after=2,times=1" perfbase input ...

A plan is a ``;``-separated list of rules ``kind@site[:key=value,...]``
plus global options (currently ``seed=N``).  Rule keys:

``p``      fire probability per eligible check (default 1.0, drawn from
           the seeded RNG — deterministic for a fixed seed);
``times``  maximum number of fires (default unlimited);
``after``  skip the first N matching checks;
``every``  fire only on every K-th eligible check;
``ms``     sleep duration in milliseconds (``latency`` rules only,
           default 1.0);
anything else is matched against the check's context (e.g. ``node=1``
matches only checks carrying ``node=1``).

Sites are matched with :mod:`fnmatch` patterns, so ``lock@db.*`` covers
``db.run``, ``db.commit`` and ``db.attach``.  The injection sites are
``db.run``, ``db.commit``, ``db.attach``, ``import.read``,
``import.store``, ``cache.put`` and ``parallel.worker``.
"""

from __future__ import annotations

import fnmatch
import os
import random
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from .core.errors import DefinitionError
from .obs.metrics import count

__all__ = [
    "ENV_FAULTS", "KINDS", "ACTIVE",
    "TransientLockFault", "InjectedIOError", "CrashFault",
    "NodeDeathFault",
    "FaultRule", "FireRecord", "FaultPlan",
    "use_faults", "current_plan", "inject", "plan_from_env",
]

#: environment variable holding a fault-plan spec for CLI invocations
ENV_FAULTS = "PERFBASE_FAULTS"

KINDS = ("lock", "io", "crash", "node_death", "latency")


# -- injected exception types -------------------------------------------------


class TransientLockFault(sqlite3.OperationalError):
    """Injected transient lock; text mirrors SQLite's own message so
    lock classification cannot special-case injected faults."""

    def __init__(self, site: str):
        super().__init__(f"database table is locked (injected at {site})")
        self.site = site


class InjectedIOError(OSError):
    """Injected I/O failure (unreadable file, failed write, ...)."""

    def __init__(self, site: str):
        super().__init__(f"injected I/O error at {site}")
        self.site = site


class CrashFault(BaseException):
    """Simulated process death ("crash before commit").

    Deliberately *not* an :class:`Exception`: no error-handling layer
    may catch, retry or roll back a crash — the transaction in flight
    is abandoned, as it would be when the process is killed.  Only the
    test harness (or the top of the CLI stack, where a real crash would
    surface too) sees it.
    """

    def __init__(self, site: str):
        super().__init__(f"injected crash at {site}")
        self.site = site


class NodeDeathFault(RuntimeError):
    """Simulated death of one cluster node during a parallel query."""

    def __init__(self, site: str, node: int):
        super().__init__(f"injected death of node {node} at {site}")
        self.site = site
        self.node = node


_EXCEPTIONS = {
    "lock": lambda site, ctx: TransientLockFault(site),
    "io": lambda site, ctx: InjectedIOError(site),
    "crash": lambda site, ctx: CrashFault(site),
    "node_death": lambda site, ctx: NodeDeathFault(
        site, int(ctx.get("node", -1))),
    # "latency" raises nothing: FaultPlan.check sleeps instead
}


# -- rules and plans ----------------------------------------------------------


@dataclass
class FaultRule:
    """One injection rule: which fault, where, and how often."""

    kind: str
    site: str                     #: fnmatch pattern over site names
    p: float = 1.0                #: fire probability per eligible check
    times: int | None = None      #: max fires (None = unlimited)
    after: int = 0                #: skip the first N matching checks
    every: int = 1                #: fire on every K-th eligible check
    ms: float = 1.0               #: sleep duration (latency rules only)
    where: dict[str, str] = field(default_factory=dict)
    #: bookkeeping (mutated under the plan lock)
    seen: int = 0
    eligible: int = 0
    fires: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DefinitionError(
                f"unknown fault kind {self.kind!r} "
                f"(known: {', '.join(KINDS)})")

    def matches(self, site: str, ctx: dict[str, Any]) -> bool:
        if not fnmatch.fnmatchcase(site, self.site):
            return False
        return all(str(ctx.get(key)) == value
                   for key, value in self.where.items())


@dataclass(frozen=True)
class FireRecord:
    """One injected fault, for post-hoc assertions and reports."""

    kind: str
    site: str
    rule: str
    context: dict[str, Any]


class FaultPlan:
    """A set of :class:`FaultRule`\\ s plus a seeded RNG.

    Thread-safe: the parallel executor's workers consult the same plan
    concurrently.  Determinism: for a fixed seed and a fixed sequence
    of checks, the same checks fire — probabilistic rules draw from one
    seeded ``random.Random`` under the plan lock.
    """

    def __init__(self, rules: list[FaultRule] | None = None, *,
                 seed: int = 0):
        self.rules: list[FaultRule] = list(rules or [])
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        #: every fired fault, in firing order
        self.log: list[FireRecord] = []

    # -- construction -----------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a spec string (see module docs)."""
        rules: list[FaultRule] = []
        seed = 0
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if "@" not in chunk:
                key, _, value = chunk.partition("=")
                if key.strip() != "seed" or not value:
                    raise DefinitionError(
                        f"bad fault-plan option {chunk!r} "
                        "(expected seed=N or kind@site:...)")
                seed = int(value)
                continue
            kind, _, rest = chunk.partition("@")
            site, _, options = rest.partition(":")
            if not site:
                raise DefinitionError(
                    f"fault rule {chunk!r} names no site")
            kwargs: dict[str, Any] = {}
            where: dict[str, str] = {}
            for option in filter(None, options.split(",")):
                key, sep, value = option.partition("=")
                key = key.strip()
                value = value.strip()
                if not sep or not value:
                    raise DefinitionError(
                        f"bad fault-rule option {option!r} in {chunk!r}")
                if key in ("p", "ms"):
                    kwargs[key] = float(value)
                elif key in ("times", "after", "every"):
                    kwargs[key] = int(value)
                else:
                    where[key] = value
            rules.append(FaultRule(kind=kind.strip(), site=site.strip(),
                                   where=where, **kwargs))
        return cls(rules, seed=seed)

    def add(self, kind: str, site: str, **options: Any) -> FaultRule:
        """Append one rule programmatically; returns it."""
        known = {"p", "times", "after", "every", "ms"}
        kwargs = {k: v for k, v in options.items() if k in known}
        where = {k: str(v) for k, v in options.items()
                 if k not in known}
        rule = FaultRule(kind=kind, site=site, where=where, **kwargs)
        self.rules.append(rule)
        return rule

    # -- the hook ---------------------------------------------------------

    def check(self, site: str, **ctx: Any) -> None:
        """Raise the first firing rule's fault for this check, if any."""
        armed: FaultRule | None = None
        with self._lock:
            for rule in self.rules:
                if not rule.matches(site, ctx):
                    continue
                rule.seen += 1
                if rule.seen <= rule.after:
                    continue
                if rule.times is not None and rule.fires >= rule.times:
                    continue
                rule.eligible += 1
                if rule.every > 1 and rule.eligible % rule.every:
                    continue
                if rule.p < 1.0 and self._rng.random() >= rule.p:
                    continue
                rule.fires += 1
                self.log.append(FireRecord(
                    kind=rule.kind, site=site,
                    rule=f"{rule.kind}@{rule.site}", context=dict(ctx)))
                armed = rule
                break
        if armed is None:
            return
        count("faults.injected")
        count(f"faults.injected.{armed.kind}")
        if armed.kind == "latency":
            # the one fault that returns normally: a planted slowdown
            time.sleep(armed.ms / 1e3)
            return
        raise _EXCEPTIONS[armed.kind](site, ctx)

    # -- introspection ----------------------------------------------------

    def fired(self, kind: str | None = None,
              site: str | None = None) -> int:
        """Number of injected faults (optionally filtered)."""
        with self._lock:
            return sum(1 for record in self.log
                       if (kind is None or record.kind == kind)
                       and (site is None or record.site == site))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultPlan({len(self.rules)} rules, seed={self.seed}, "
                f"{len(self.log)} fired)")


# -- activation ---------------------------------------------------------------

#: the installed plan; hook sites read this attribute inline so the
#: disabled path costs one module-attribute load (same bargain as the
#: tracer's ``current_tracer()``).  A module global rather than a
#: contextvar: worker threads of the parallel executor must see it.
ACTIVE: FaultPlan | None = None


def current_plan() -> FaultPlan | None:
    """The installed :class:`FaultPlan`, or ``None`` when disabled."""
    return ACTIVE


@contextmanager
def use_faults(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Install ``plan`` for the extent of the ``with`` block.

    ``use_faults(None)`` is a no-op context (convenient for code paths
    that conditionally enable injection).
    """
    global ACTIVE
    previous = ACTIVE
    ACTIVE = plan
    try:
        yield plan
    finally:
        ACTIVE = previous


def inject(site: str, **ctx: Any) -> None:
    """Out-of-line hook for warm (not hot) sites.

    Hot paths (per-statement database calls) read ``faults.ACTIVE``
    inline instead, mirroring how they branch on ``current_tracer()``.
    """
    plan = ACTIVE
    if plan is not None:
        plan.check(site, **ctx)


def plan_from_env(environ: dict[str, str] | None = None
                  ) -> FaultPlan | None:
    """Plan described by ``$PERFBASE_FAULTS``, or ``None`` if unset."""
    spec = (environ if environ is not None else os.environ).get(
        ENV_FAULTS, "").strip()
    if not spec:
        return None
    return FaultPlan.parse(spec)
