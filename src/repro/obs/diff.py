"""Trace diffing and the one regression rule.

The paper's workflow tracks how *benchmark* results move across runs
("track the performance changes that we achieve", Section 5).  This
module applies the idea to perfbase's own execution traces and holds
the single rule that decides whether a metric regressed:
:func:`compare_metric` takes baseline and observed samples of one
metric and returns a :class:`MetricComparison`.

* A count metric (rows, bytes: any unit but seconds) regresses exactly
  when its medians differ — a declared workload moves a deterministic
  number of rows, so any change is behavioural.
* A time metric regresses when the observed median exceeds the
  baseline median by more than ``threshold`` (relative, strict ``>``)
  **and** by at least ``floor`` seconds **and** is a statistical
  outlier against the baseline samples
  (:func:`repro.analysis.outliers.outlier_mask` with the given
  ``method``/``sensitivity``).  The outlier test needs at least three
  baseline samples — with the observed median that makes the four
  points ``outlier_mask`` requires; below that the two floors decide
  alone.
* An improvement is the same test with the sides swapped: the baseline
  exceeds the observed median by the relative and absolute floors.

:func:`diff_traces` (``perfbase trace-diff``) groups the spans of two
traces by ``(kind, name)`` and applies the rule to each group's summed
wall time, one sample per side; the sentinel
(:func:`repro.sentinel.compare.compare_samples`, ``perfbase check``)
applies it to N stored and M fresh samples per element.  Each
regression carries a structured :class:`RegressionReason` that both
commands render and serialise from, so ASCII report and
machine-readable verdict always agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from .profile import SpanTotals, rollup
from .spans import ELEMENT_KINDS

__all__ = ["RegressionReason", "RegressionRecord", "MetricComparison",
           "compare_metric", "SpanSetDelta", "TraceDiff", "diff_traces"]


def relative_change(baseline: float, observed: float) -> float:
    """(observed - baseline) / |baseline|; ``inf`` from zero."""
    if baseline == 0.0:
        return float("inf") if observed else 0.0
    return (observed - baseline) / abs(baseline)


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
        return relative_change(self.baseline, self.observed)

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


@dataclass(frozen=True)
class MetricComparison:
    """One metric compared across two sample sets: both medians plus
    the verdict of :func:`compare_metric`."""

    metric: str
    unit: str
    baseline: float          #: median of the baseline samples
    observed: float          #: median of the observed samples
    n_baseline: int
    n_observed: int
    reason: RegressionReason | None = None  #: set iff regression
    improved: bool = False

    @property
    def is_regression(self) -> bool:
        return self.reason is not None

    @property
    def relative_change(self) -> float:
        return relative_change(self.baseline, self.observed)

    def to_dict(self) -> dict[str, Any]:
        out = {"metric": self.metric, "unit": self.unit,
               "baseline": self.baseline, "observed": self.observed,
               "n_baseline": self.n_baseline,
               "n_observed": self.n_observed,
               "regression": self.is_regression,
               "improved": self.improved}
        if self.reason is not None:
            out["reason"] = self.reason.to_dict()
        return out


def compare_metric(metric: str, base: Sequence[float],
                   observed: Sequence[float], *, unit: str = "s",
                   threshold: float = 0.0, floor: float = 0.0,
                   method: str = "mad", sensitivity: float = 4.0
                   ) -> MetricComparison:
    """Decide whether one metric regressed or improved.

    ``base``/``observed`` are the samples of each side (one each for a
    trace diff).  A metric in seconds is a time metric, judged by
    ``threshold`` (relative), ``floor`` (absolute seconds) and — with
    at least three baseline samples — the ``method``/``sensitivity``
    outlier test; any other unit is a count that regresses whenever
    the medians differ.  See the module docstring for the full rule.
    """
    # imported here: importing repro.obs stays free of numpy, and
    # repro.analysis depends on the core layer, which imports this
    # package
    import numpy as np
    from ..analysis.outliers import outlier_mask

    base_arr = np.asarray(base, dtype=float)
    base_med = float(np.median(base_arr))
    obs_med = float(np.median(np.asarray(observed, dtype=float)))
    if unit != "s":
        reason = (None if obs_med == base_med else RegressionReason(
            metric=metric, baseline=base_med, observed=obs_med,
            threshold=0.0, unit=unit))
        return MetricComparison(metric, unit, base_med, obs_med,
                                len(base), len(observed), reason)

    def exceeds(low: float, high: float) -> bool:
        return high > low * (1.0 + threshold) and high - low >= floor

    regressed = exceeds(base_med, obs_med)
    improved = exceeds(obs_med, base_med)
    if (regressed or improved) and len(base) >= 3:
        outlier = bool(outlier_mask(np.append(base_arr, obs_med),
                                    method=method,
                                    threshold=sensitivity)[-1])
        regressed, improved = regressed and outlier, improved and outlier
    reason = (RegressionReason(
        metric=metric, baseline=base_med, observed=obs_med,
        threshold=threshold, min_value=floor, unit=unit)
        if regressed else None)
    return MetricComparison(metric, unit, base_med, obs_med, len(base),
                            len(observed), reason, improved)


@dataclass
class SpanSetDelta:
    """Per-(kind, name) row of a trace diff; ``comparison`` holds the
    wall-time verdict of :func:`compare_metric`."""

    kind: str
    name: str
    comparison: MetricComparison
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
        return [d for d in self.deltas if d.comparison.is_regression]

    def improvements(self) -> list[SpanSetDelta]:
        return [d for d in self.deltas if d.comparison.improved]

    def regression_records(self) -> list[RegressionRecord]:
        """Every regression with its structured reason attached."""
        return [RegressionRecord(d.kind, d.name, d.comparison.reason)
                for d in self.regressions()]

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
            flag = ("REGRESSION" if d.comparison.is_regression
                    else "improved" if d.comparison.improved else "")
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
    and ``min_seconds`` are :func:`compare_metric`'s relative and
    absolute floors, applied to each span set's summed wall time.
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
            comparison=compare_metric(
                "wall_s", [b.wall_seconds], [n.wall_seconds],
                threshold=threshold, floor=min_seconds),
            base_calls=b.calls, new_calls=n.calls,
            base_wall=b.wall_seconds, new_wall=n.wall_seconds,
            base_rows=b.rows, new_rows=n.rows))
        if key not in new_totals:
            diff.only_base.append(key)
        elif key not in base_totals:
            diff.only_new.append(key)
    return diff
