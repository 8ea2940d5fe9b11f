"""Statistical trace comparison: fresh samples vs a stored baseline.

The sentinel compares *distributions*: every element contributes N
baseline samples and M fresh samples per metric (wall/CPU seconds,
rows, bytes).  Each metric is judged by
:func:`repro.obs.diff.compare_metric` — the rule ``trace-diff`` applies
to one sample per side — with :class:`CheckOptions` supplying its
knobs: ``min_change`` is the relative floor, ``min_seconds`` the
absolute one, and ``method``/``sensitivity`` the outlier test a time
median must also pass once the baseline holds three or more samples.
Row and byte counts regress on any change of median; getting faster
never fails a check, it only earns the ``improved`` label.  Elements
with fewer than ``min_samples`` baseline samples are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..analysis.outliers import METHODS
from ..core.errors import DefinitionError
from ..obs.diff import MetricComparison, compare_metric
from ..obs.render import table
from .store import METRICS, ElementSamples

__all__ = ["CheckOptions", "MetricComparison", "ElementVerdict",
           "CheckReport", "compare_samples"]

#: metrics measured in seconds; the others are deterministic counts
TIME_METRICS = ("wall_s", "cpu_s")


@dataclass(frozen=True)
class CheckOptions:
    """Tunables of one comparison (CLI flags map 1:1)."""

    sensitivity: float = 4.0     #: outlier score cut (MAD z-score)
    method: str = "mad"          #: outlier detector
    min_samples: int = 4         #: baseline samples needed per element
    min_change: float = 0.5      #: relative growth floor (0.5 = +50%)
    min_seconds: float = 0.002   #: absolute growth floor for time

    def __post_init__(self):
        if self.method not in METHODS:
            raise DefinitionError(
                f"unknown outlier method {self.method!r} "
                f"(known: {', '.join(METHODS)})")
        if self.min_samples < 1:
            raise DefinitionError("min_samples must be positive")
        if self.sensitivity <= 0:
            raise DefinitionError("sensitivity must be positive")
        if self.min_change < 0 or self.min_seconds < 0:
            raise DefinitionError(
                "min_change and min_seconds must be non-negative")


@dataclass
class ElementVerdict:
    """All metric comparisons of one query element."""

    element: str
    kind: str
    comparisons: list[MetricComparison] = field(default_factory=list)
    #: set when the element could not be judged (e.g. too few samples)
    skipped: str | None = None

    def regressions(self) -> list[MetricComparison]:
        return [c for c in self.comparisons if c.is_regression]

    def to_dict(self) -> dict[str, Any]:
        return {"element": self.element, "kind": self.kind,
                "skipped": self.skipped,
                "metrics": [c.to_dict() for c in self.comparisons]}


@dataclass
class CheckReport:
    """Result of comparing one baseline against fresh samples."""

    baseline: str
    workload: str
    options: CheckOptions
    verdicts: list[ElementVerdict] = field(default_factory=list)
    #: structural drift: elements on only one side of the comparison
    only_baseline: list[str] = field(default_factory=list)
    only_check: list[str] = field(default_factory=list)

    def regressions(self) -> list[tuple[ElementVerdict,
                                        MetricComparison]]:
        return [(v, c) for v in self.verdicts
                for c in v.regressions()]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions())

    @property
    def verdict(self) -> str:
        return "regression" if self.has_regressions else "pass"

    def to_dict(self) -> dict[str, Any]:
        return {
            "baseline": self.baseline,
            "workload": self.workload,
            "verdict": self.verdict,
            "options": {
                "sensitivity": self.options.sensitivity,
                "method": self.options.method,
                "min_samples": self.options.min_samples,
                "min_change": self.options.min_change,
                "min_seconds": self.options.min_seconds,
            },
            "elements": [v.to_dict() for v in self.verdicts],
            "only_baseline": list(self.only_baseline),
            "only_check": list(self.only_check),
        }

    def render(self) -> str:
        """ASCII check report (through :func:`repro.obs.render.table`)."""
        rows = []
        for v in self.verdicts:
            for c in v.comparisons:
                flag = ("REGRESSION" if c.is_regression
                        else "improved" if c.improved else "")
                rows.append([v.element, v.kind, c.metric,
                             c.baseline, c.observed,
                             100.0 * c.relative_change, flag])
        title = (f"check {self.workload!r} against baseline "
                 f"{self.baseline!r}")
        text = table(rows,
                     [("element", "string"), ("kind", "string"),
                      ("metric", "string"), ("base", "float"),
                      ("new", "float"), ("delta_pct", "float"),
                      ("flag", "string")],
                     title)
        lines = [text.rstrip("\n")]
        for v in self.verdicts:
            if v.skipped:
                lines.append(f"skipped: {v.element} [{v.kind}]: "
                             f"{v.skipped}")
        for v, c in self.regressions():
            lines.append(f"regression: {v.element} [{v.kind}]: "
                         f"{c.reason.describe()}")
        for element in self.only_baseline:
            lines.append(f"only in baseline: {element}")
        for element in self.only_check:
            lines.append(f"only in fresh run: {element}")
        n_reg = len(self.regressions())
        lines.append(f"{n_reg} regression(s) over "
                     f"{len(self.verdicts)} element(s); "
                     f"verdict: {self.verdict.upper()}")
        return "\n".join(lines) + "\n"


def compare_samples(baseline: str, workload: str,
                    base: dict[str, ElementSamples],
                    fresh: dict[str, ElementSamples],
                    options: CheckOptions | None = None
                    ) -> CheckReport:
    """Compare per-element distributions of a baseline vs fresh runs."""
    options = options or CheckOptions()
    report = CheckReport(baseline=baseline, workload=workload,
                         options=options)
    for element in sorted(set(base) | set(fresh)):
        if element not in fresh:
            report.only_baseline.append(element)
            continue
        if element not in base:
            report.only_check.append(element)
            continue
        b, f = base[element], fresh[element]
        verdict = ElementVerdict(element=element, kind=b.kind)
        n = b.n()
        if n < options.min_samples:
            verdict.skipped = (f"only {n} baseline sample(s), "
                               f"need {options.min_samples}")
            report.verdicts.append(verdict)
            continue
        for metric in METRICS:
            verdict.comparisons.append(compare_metric(
                metric, b.values[metric], f.values[metric],
                unit="s" if metric in TIME_METRICS else metric,
                threshold=options.min_change,
                floor=options.min_seconds, method=options.method,
                sensitivity=options.sensitivity))
        report.verdicts.append(verdict)
    return report
