"""Metrics: one always-on process registry and views over it.

The trace (:mod:`repro.obs.spans`) answers *where did this run spend
its time*; metrics answer *how often / how much* — statements executed,
rows moved, duplicate files skipped, queue waits in the parallel
executor.

Every instrumented layer writes to one process-level registry,
:data:`REGISTRY`, through :func:`count` and :func:`gauge_add`, whether
or not a tracer is active.  Every instrument only ever adds, so the
work done over an interval is the difference of two readings.  A
:class:`MetricsView` takes the first reading when it opens and reports
that difference: a :class:`~repro.obs.tracer.Tracer`, an
:class:`~repro.service.ExperimentService` and a
:class:`~repro.query.cache.QueryCache` each own one.  A view counts
everything the *process* did while it was open, so two views open at
the same time (two tracers, two services) see each other's work.

All instruments are thread-safe: the parallel executor's worker pool
increments them concurrently.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping

__all__ = ["Counter", "Gauge", "Metrics", "MetricsView", "REGISTRY",
           "count", "gauge_add"]


class Counter:
    """Monotonically increasing value (counts, row totals, seconds)."""

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self._value: int | float = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"type": self.kind, "value": self._value}


class Gauge(Counter):
    """A value that goes up and down (open sessions, queue depth)."""

    kind = "gauge"

    def inc(self, amount: int | float = 1) -> int | float:
        """Add ``amount`` (negative to lower it); returns the new value."""
        with self._lock:
            self._value += amount
            return self._value

    def dec(self, amount: int | float = 1) -> int | float:
        return self.inc(-amount)

    def set(self, value: int | float) -> None:
        """Overwrite the value; only for registries that are not
        :data:`REGISTRY` (a view's difference assumes additions)."""
        with self._lock:
            self._value = value


_KINDS = {"counter": Counter, "gauge": Gauge}


class Metrics:
    """Registry of named instruments, created on first use.

    A name is bound to one instrument kind for the registry's lifetime;
    asking for the same name with a different kind is a programming
    error and raises.
    """

    def __init__(self):
        self._instruments: dict[str, Counter] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls: type[Counter]) -> Counter:
        # lock-free on the hot path: a dict read is atomic, and an
        # instrument is never replaced once registered
        inst = self._instruments.get(name)
        if type(inst) is cls:
            return inst
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = self._instruments[name] = cls(name)
            elif type(inst) is not cls:
                raise TypeError(
                    f"metric {name!r} is a {type(inst).__name__}, "
                    f"not a {cls.__name__}")
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str) -> Counter:
        """Look up an existing instrument (KeyError if absent)."""
        with self._lock:
            return self._instruments[name]

    def values(self) -> dict[str, int | float]:
        """Every instrument's current value, by name."""
        with self._lock:
            items = list(self._instruments.items())
        return {name: inst.value for name, inst in items}

    def since(self, base: Mapping[str, int | float]) -> "Metrics":
        """A new registry holding how far each instrument moved since
        ``base`` (a :meth:`values` reading); unmoved ones are left out."""
        with self._lock:
            items = list(self._instruments.items())
        moved = Metrics()
        for name, inst in items:
            delta = inst.value - base.get(name, 0)
            if delta:
                moved._get(name, type(inst)).inc(delta)
        return moved

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """JSON-able dump of every instrument's current state."""
        with self._lock:
            items = list(self._instruments.items())
        return {name: inst.snapshot() for name, inst in items}

    @classmethod
    def from_snapshot(cls, data: Mapping[str, Mapping[str, Any]]
                      ) -> "Metrics":
        """Rebuild a read-only view from :meth:`snapshot` output
        (instrument types this version does not know are skipped)."""
        metrics = cls()
        for name, snap in data.items():
            kind = _KINDS.get(snap.get("type"))
            if kind is not None:
                metrics._get(name, kind).inc(snap.get("value", 0))
        return metrics


#: the process-level registry every instrumented layer writes to
REGISTRY = Metrics()


def count(name: str, amount: int | float = 1) -> None:
    """Add ``amount`` to the process counter ``name``."""
    REGISTRY.counter(name).inc(amount)


def gauge_add(name: str, amount: int | float) -> int | float:
    """Add ``amount`` (negative to lower it) to the process gauge
    ``name``; returns the gauge's new process-wide value."""
    return REGISTRY.gauge(name).inc(amount)


class MetricsView:
    """What :data:`REGISTRY` recorded since this view opened.

    Reads the registry when created; every read afterwards reports the
    difference, listing only the instruments that moved.  :meth:`close`
    freezes the view, so later work in the process no longer shows.
    The read methods mirror :class:`Metrics`, so a view renders and
    serialises like a registry.
    """

    def __init__(self):
        self._base = REGISTRY.values()
        self._final: Metrics | None = None

    def current(self) -> Metrics:
        """The difference so far (or at close), as a fresh registry."""
        if self._final is not None:
            return self._final
        return REGISTRY.since(self._base)

    def close(self) -> Metrics:
        """Freeze the view; returns the final difference."""
        if self._final is None:
            self._final = REGISTRY.since(self._base)
        return self._final

    def counter(self, name: str) -> Counter:
        return self.current().counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.current().gauge(name)

    def get(self, name: str) -> Counter:
        return self.current().get(name)

    def names(self) -> list[str]:
        return self.current().names()

    def snapshot(self) -> dict[str, dict[str, Any]]:
        return self.current().snapshot()
