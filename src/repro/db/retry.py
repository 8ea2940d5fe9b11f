"""Shared retry/backoff policy for transient database lock contention.

perfbase's database is written by importers, query-cache stores and
(through ATTACH) the simulated cluster nodes, potentially from several
processes at once.  SQLite signals contention with transient
``OperationalError: database/table is locked`` / ``database is busy``
conditions that clear within microseconds to milliseconds — the right
response is a bounded, deterministic retry, not failure and not an
unbounded spin.

This module generalises the ad-hoc ``_retry_locked`` helper that PR 4
kept private to :mod:`repro.query.cache`.  Differences from that
helper (both were bugs):

* classification matches **only** ``sqlite3.OperationalError`` lock /
  busy conditions (walking the explicit ``__cause__`` chain through
  :class:`~repro.core.errors.DatabaseError` wrappers), instead of any
  exception whose text happens to contain "locked";
* after the deadline passes, **one final attempt is guaranteed** —
  previously the helper gave up exactly at the deadline even when the
  deadline expired during the last backoff sleep, i.e. without ever
  re-trying against the (likely cleared) lock.

Observability: ``retry.retries`` / ``retry.recovered`` /
``retry.exhausted`` / ``retry.sleep_seconds`` counters (plus per-site
``retry.retries.<site>``) in the process registry
(:data:`repro.obs.REGISTRY`), and a ``retries=`` attribute on the
innermost open span.  A statement that succeeds at once costs the bare
``try``; the counters move only on retries.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from ..obs.metrics import count
from ..obs.tracer import current_span

__all__ = ["RetryPolicy", "DEFAULT_POLICY", "retry_locked",
           "is_transient_lock"]

_T = TypeVar("_T")

#: substrings of SQLite's transient-contention messages
_LOCK_MARKERS = ("locked", "busy")


def is_transient_lock(exc: BaseException | None) -> bool:
    """Whether an exception is a retryable SQLite lock/busy condition.

    Walks the explicit ``__cause__`` chain so a
    :class:`~repro.core.errors.DatabaseError` raised ``from`` an
    ``sqlite3.OperationalError`` classifies like the original error.
    Implicit ``__context__`` links are deliberately not followed — an
    unrelated failure that merely *happened during* lock handling must
    not be retried.
    """
    seen: set[int] = set()
    while exc is not None and id(exc) not in seen:
        seen.add(id(exc))
        if isinstance(exc, sqlite3.OperationalError):
            text = str(exc).lower()
            if any(marker in text for marker in _LOCK_MARKERS):
                return True
        exc = exc.__cause__
    return False


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded deterministic retry with exponential backoff.

    The delay sequence is fixed (no jitter): ``base_delay`` doubling by
    ``multiplier`` up to ``max_delay``, truncated so the total sleep
    never overshoots ``deadline`` seconds.  Giving up requires *both* a
    failed attempt after the deadline (at least one post-deadline
    attempt is guaranteed) — or ``max_attempts`` total attempts,
    whichever comes first.
    """

    max_attempts: int = 12
    base_delay: float = 0.002
    max_delay: float = 0.05
    multiplier: float = 2.0
    deadline: float = 5.0

    def run(self, fn: Callable[[], _T], *,
            site: str = "db",
            classify: Callable[[BaseException], bool] | None = None,
            clock: Callable[[], float] = time.monotonic,
            sleep: Callable[[float], None] = time.sleep) -> _T:
        """Call ``fn`` until it succeeds or the policy is exhausted.

        ``fn`` must be safe to re-run (all perfbase retry sites are
        written to be idempotent).  ``classify`` decides retryability
        (default :func:`is_transient_lock`); ``clock`` and ``sleep``
        exist so tests can drive virtual time.
        """
        classify = classify or is_transient_lock
        deadline = clock() + self.deadline
        delay = self.base_delay
        retries = 0
        final = False
        while True:
            try:
                result = fn()
            except Exception as exc:
                if not classify(exc):
                    raise
                retries += 1
                self._on_retry(site)
                if final or retries >= self.max_attempts:
                    self._on_exhausted(site, retries)
                    raise
                now = clock()
                if now >= deadline:
                    # deadline expired while sleeping or executing:
                    # one immediate final attempt is still owed
                    final = True
                    continue
                wait = min(delay, self.max_delay,
                           max(deadline - now, 0.0))
                if wait > 0:
                    sleep(wait)
                    self._on_sleep(wait)
                delay = min(delay * self.multiplier, self.max_delay)
                continue
            if retries:
                self._on_recovered(site, retries)
            return result

    # -- observability: process counters, plus the open span if any ------

    @staticmethod
    def _on_retry(site: str) -> None:
        count("retry.retries")
        count(f"retry.retries.{site}")

    @staticmethod
    def _on_sleep(seconds: float) -> None:
        count("retry.sleep_seconds", seconds)

    def _on_recovered(self, site: str, retries: int) -> None:
        count("retry.recovered")
        self._annotate_span(retries)

    def _on_exhausted(self, site: str, retries: int) -> None:
        count("retry.exhausted")
        self._annotate_span(retries)

    @staticmethod
    def _annotate_span(retries: int) -> None:
        span = current_span()
        if span is not None:
            span.attributes["retries"] = (
                int(span.attributes.get("retries", 0)) + retries)


#: the policy every built-in adopter (query cache, batch commit,
#: cluster-node attach) shares
DEFAULT_POLICY = RetryPolicy()


def retry_locked(fn: Callable[[], _T], *, site: str = "db",
                 policy: RetryPolicy | None = None) -> _T:
    """Run ``fn`` under the default (or given) retry policy."""
    return (policy or DEFAULT_POLICY).run(fn, site=site)
