"""Trace diffing and regression detection.

The paper's workflow tracks how *benchmark* results move across runs
("track the performance changes that we achieve", Section 5, and the
``check`` command's regression analysis).  This module applies the same
idea to perfbase's own execution traces: two recorded traces of the
same workload — yesterday's query run vs today's, serial vs parallel,
before vs after an optimisation — are compared span-set by span-set.

Spans are grouped by ``(kind, name)`` (the logical identity of an
element, statement class or transfer) and each group's call count,
summed wall time and row count are compared.  A group whose wall time
grew beyond a configurable threshold (and a noise floor) is flagged as
a **regression**; groups that shrank accordingly count as improvements.
Each flagged group carries a structured :class:`RegressionReason`
(metric, baseline value, observed value, thresholds) that both
``perfbase trace-diff`` and the continuous sentinel
(:mod:`repro.sentinel`) render — and serialise — from, so ASCII report
and machine-readable verdict always agree.  ``perfbase trace-diff``
exposes this with ``--fail-on-regression`` for CI wiring, and the
benchmark harness uses it for the PR trajectory point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .profile import SpanTotals, rollup
from .spans import ELEMENT_KINDS

__all__ = ["RegressionReason", "RegressionRecord", "SpanSetDelta",
           "TraceDiff", "diff_traces"]


@dataclass(frozen=True)
class RegressionReason:
    """Why a comparison flagged a regression, as structured data.

    Carries the metric that moved, both values and the thresholds that
    were exceeded — renderers (``perfbase trace-diff``, the sentinel's
    check report) format it; nothing stores preformatted strings, so a
    machine-readable verdict can serialise the same record the ASCII
    report shows.
    """

    metric: str            #: e.g. ``wall_s``, ``cpu_s``, ``rows``
    baseline: float
    observed: float
    threshold: float       #: relative growth limit that was exceeded
    min_value: float = 0.0  #: absolute floor that was also cleared
    unit: str = "s"

    @property
    def delta(self) -> float:
        return self.observed - self.baseline

    @property
    def relative_change(self) -> float:
        """(observed - baseline) / |baseline|; ``inf`` from zero."""
        if self.baseline == 0.0:
            return float("inf") if self.observed else 0.0
        return self.delta / abs(self.baseline)

    def _fmt(self, value: float) -> str:
        if self.unit == "s":
            return f"{value * 1e3:.3f}ms"
        if self.unit in ("rows", "bytes", ""):
            return f"{value:g}"
        return f"{value:g}{self.unit}"

    def describe(self) -> str:
        """One-line human rendering of the structured record."""
        rel = self.relative_change
        change = ("from zero baseline" if rel == float("inf")
                  else f"{100 * rel:+.1f}%")
        text = (f"{self.metric} {self._fmt(self.baseline)} -> "
                f"{self._fmt(self.observed)} ({change}, "
                f"threshold {100 * self.threshold:+.0f}%")
        if self.min_value:
            text += f", floor {self._fmt(self.min_value)}"
        return text + ")"

    def to_dict(self) -> dict:
        """JSON-able form for verdict files."""
        return {"metric": self.metric, "baseline": self.baseline,
                "observed": self.observed, "threshold": self.threshold,
                "min_value": self.min_value, "unit": self.unit,
                "relative_change": self.relative_change}


@dataclass(frozen=True)
class RegressionRecord:
    """One flagged span set: its identity plus the structured reason."""

    kind: str
    name: str
    reason: RegressionReason

    def describe(self) -> str:
        return f"{self.name} [{self.kind}]: {self.reason.describe()}"


@dataclass
class SpanSetDelta:
    """Per-(kind, name) comparison of two traces."""

    kind: str
    name: str
    base_calls: int = 0
    new_calls: int = 0
    base_wall: float = 0.0
    new_wall: float = 0.0
    base_rows: int = 0
    new_rows: int = 0

    @property
    def wall_delta(self) -> float:
        return self.new_wall - self.base_wall

    @property
    def wall_ratio(self) -> float:
        """new/base wall time; ``inf`` for groups new in this trace."""
        if self.base_wall <= 0.0:
            return float("inf") if self.new_wall > 0.0 else 1.0
        return self.new_wall / self.base_wall

    def is_regression(self, threshold: float,
                      min_seconds: float) -> bool:
        return (self.new_wall > self.base_wall * (1.0 + threshold)
                and self.wall_delta >= min_seconds)

    def is_improvement(self, threshold: float,
                       min_seconds: float) -> bool:
        return (self.base_wall > self.new_wall * (1.0 + threshold)
                and -self.wall_delta >= min_seconds)

    def regression_reason(self, threshold: float, min_seconds: float
                          ) -> RegressionReason | None:
        """Structured reason when this delta is a regression."""
        if not self.is_regression(threshold, min_seconds):
            return None
        return RegressionReason(
            metric="wall_s", baseline=self.base_wall,
            observed=self.new_wall, threshold=threshold,
            min_value=min_seconds, unit="s")


@dataclass
class TraceDiff:
    """Result of :func:`diff_traces`."""

    deltas: list[SpanSetDelta] = field(default_factory=list)
    #: span sets present only in the base / only in the new trace
    only_base: list[tuple[str, str]] = field(default_factory=list)
    only_new: list[tuple[str, str]] = field(default_factory=list)
    threshold: float = 0.25
    min_seconds: float = 0.0

    def regressions(self) -> list[SpanSetDelta]:
        return [d for d in self.deltas
                if d.is_regression(self.threshold, self.min_seconds)]

    def improvements(self) -> list[SpanSetDelta]:
        return [d for d in self.deltas
                if d.is_improvement(self.threshold, self.min_seconds)]

    def regression_records(self) -> list[RegressionRecord]:
        """Every regression with its structured reason attached."""
        records = []
        for d in self.deltas:
            reason = d.regression_reason(self.threshold,
                                         self.min_seconds)
            if reason is not None:
                records.append(RegressionRecord(d.kind, d.name, reason))
        return records

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions())

    def report(self, title: str = "trace diff") -> str:
        """Aligned per-span-set delta table, worst ratio first."""
        lines = [f"{title}: {len(self.deltas)} span set(s), "
                 f"threshold {self.threshold * 100:.0f}%",
                 f"{'kind':<10} {'name':<24} {'calls':>11} "
                 f"{'base [ms]':>11} {'new [ms]':>11} "
                 f"{'delta':>8}  flag"]
        ordered = sorted(
            self.deltas,
            key=lambda d: (-d.wall_ratio if d.wall_ratio != float("inf")
                           else float("-inf"), d.kind, d.name))
        for d in ordered:
            if d.base_wall > 0.0:
                delta = f"{100 * (d.wall_ratio - 1.0):+7.1f}%"
            else:
                delta = "    new"
            flag = ""
            if d.is_regression(self.threshold, self.min_seconds):
                flag = "REGRESSION"
            elif d.is_improvement(self.threshold, self.min_seconds):
                flag = "improved"
            lines.append(
                f"{d.kind:<10} {d.name:<24} "
                f"{d.base_calls:>5}/{d.new_calls:<5} "
                f"{d.base_wall * 1e3:>11.3f} {d.new_wall * 1e3:>11.3f} "
                f"{delta:>8}  {flag}".rstrip())
        for record in self.regression_records():
            lines.append(f"regression: {record.describe()}")
        for kind, name in self.only_base:
            lines.append(f"only in base trace: {name} [{kind}]")
        n_reg = len(self.regressions())
        lines.append(f"{n_reg} regression(s), "
                     f"{len(self.improvements())} improvement(s)")
        return "\n".join(lines) + "\n"


def diff_traces(base, new, *, threshold: float = 0.25,
                min_seconds: float = 0.0,
                kinds: Sequence[str] | None = ELEMENT_KINDS
                ) -> TraceDiff:
    """Compare two traces span-set by span-set.

    ``base``/``new`` may be :class:`~repro.obs.sinks.TraceData` objects
    or plain span iterables.  ``kinds`` restricts the comparison (the
    default compares only query-element spans — the logical execution
    record; pass ``None`` to compare every span kind).  ``threshold``
    is the relative wall-time growth that counts as a regression,
    ``min_seconds`` an absolute noise floor the growth must also clear.
    """
    if threshold < 0.0:
        raise ValueError("threshold must be non-negative")
    kindset = frozenset(kinds) if kinds is not None else None

    def totals(trace):
        return {key: st for key, st in
                rollup(getattr(trace, "spans", trace)).items()
                if kindset is None or key[0] in kindset}

    base_totals, new_totals = totals(base), totals(new)
    diff = TraceDiff(threshold=threshold, min_seconds=min_seconds)
    for key in sorted(set(base_totals) | set(new_totals)):
        b = base_totals.get(key) or SpanTotals(*key)
        n = new_totals.get(key) or SpanTotals(*key)
        diff.deltas.append(SpanSetDelta(
            kind=b.kind, name=b.name,
            base_calls=b.calls, new_calls=n.calls,
            base_wall=b.wall_seconds, new_wall=n.wall_seconds,
            base_rows=b.rows, new_rows=n.rows))
        if key not in new_totals:
            diff.only_base.append(key)
        elif key not in base_totals:
            diff.only_new.append(key)
    return diff
