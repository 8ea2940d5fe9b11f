"""One regression rule for ``trace-diff`` and ``perfbase check``.

``diff_traces`` compares one sample per side, ``compare_samples`` N
per side; both call :func:`repro.obs.diff.compare_metric`, so the same
numbers must give the same flags and the same structured reason.
"""

from __future__ import annotations

import pytest

from repro.core.errors import DefinitionError
from repro.obs import Span, compare_metric, diff_traces
from repro.sentinel import CheckOptions, compare_samples
from repro.sentinel.store import ElementSamples

pytestmark = [pytest.mark.obs, pytest.mark.obs_analytics,
              pytest.mark.sentinel]


def samples(wall):
    es = ElementSamples(element="op", kind="operator")
    es.values["wall_s"] = list(wall)
    es.values["cpu_s"] = list(wall)
    es.values["rows"] = [10.0] * len(wall)
    es.values["bytes"] = [0.0] * len(wall)
    return es


def check_wall(base, fresh, **options):
    """The wall_s comparison of one element through compare_samples."""
    report = compare_samples("v1", "fig8", {"op": samples(base)},
                             {"op": samples(fresh)},
                             CheckOptions(**options))
    (verdict,) = report.verdicts
    assert verdict.skipped is None
    return next(c for c in verdict.comparisons if c.metric == "wall_s")


def span(seconds):
    return Span(1, None, "op", kind="operator", start=0.0, end=seconds)


#: (base seconds, fresh seconds, threshold, floor, regressed, improved)
CASES = [
    (0.100, 0.300, 0.25, 0.0, True, False),
    (0.100, 0.300, 0.25, 0.3, False, False),      # under the floor
    (0.300, 0.100, 0.25, 0.0, False, True),
    (0.100, 0.120, 0.25, 0.0, False, False),      # +20% < +25%
    (0.25, 0.375, 0.5, 0.0, False, False),        # exactly +threshold
    (0.375, 0.25, 0.5, 0.0, False, False),        # exactly the swap
    (0.010, 0.100, 0.5, 0.002, True, False),      # 10x slowdown
    (0.010, 0.006, 0.5, 0.002, False, True),      # improvement band
    (0.0, 0.010, 0.25, 0.0, True, False),         # from zero
    (0.100, 0.100, 0.0, 0.0, False, False),
]


class TestOneRuleBothPaths:
    @pytest.mark.parametrize(
        "base,fresh,threshold,floor,regressed,improved", CASES)
    def test_trace_diff_and_check_agree(self, base, fresh, threshold,
                                        floor, regressed, improved):
        diff = diff_traces([span(base)], [span(fresh)],
                           threshold=threshold, min_seconds=floor)
        (delta,) = diff.deltas
        wall = check_wall([base], [fresh], min_samples=1,
                          min_change=threshold, min_seconds=floor)
        assert bool(diff.regressions()) == wall.is_regression \
            == regressed
        assert bool(diff.improvements()) == wall.improved == improved
        if regressed:
            (record,) = diff.regression_records()
            assert record.reason == wall.reason
            assert (wall.reason.metric, wall.reason.threshold,
                    wall.reason.min_value) == ("wall_s", threshold,
                                               floor)
        assert delta.comparison.reason == wall.reason


class TestFewBaselineSamples:
    @pytest.mark.parametrize("n", [1, 2])
    def test_tenfold_slowdown_flagged(self, n):
        wall = check_wall([0.010] * n, [0.100] * 3, min_samples=n)
        assert wall.is_regression
        assert wall.reason.relative_change == pytest.approx(9.0)

    def test_no_outlier_test_below_three_samples(self):
        # the floors alone decide, however noisy two samples are
        wall = compare_metric("wall_s", [0.010, 0.100], [0.100],
                              threshold=0.5, floor=0.002)
        assert wall.is_regression

    def test_outlier_test_from_three_samples(self):
        # a wide baseline makes +60% ordinary noise
        wall = compare_metric("wall_s", [0.010, 0.030, 0.050], [0.048],
                              threshold=0.5, floor=0.002)
        assert not wall.is_regression


class TestBoundaries:
    def test_exactly_threshold_not_flagged_with_many_samples(self):
        # a tight baseline, so the observed median is a clear outlier
        wall = check_wall([0.25] * 9, [0.375] * 3)
        assert not wall.is_regression
        assert wall.relative_change == pytest.approx(0.5)

    def test_just_above_threshold_flagged(self):
        wall = check_wall([0.25] * 9, [0.376] * 3)
        assert wall.is_regression

    def test_improved_band_at_default_min_change(self):
        # 10ms -> 6ms: below base/1.5, so improved at min_change 0.5
        base = [0.010, 0.0101, 0.0099, 0.0100, 0.0102]
        assert check_wall(base, [0.006] * 3).improved
        # 10ms -> 6.8ms stays above base/1.5
        assert not check_wall(base, [0.0068] * 3).improved

    def test_count_metric_regresses_on_any_change(self):
        rows = compare_metric("rows", [10, 10], [11], unit="rows")
        assert rows.is_regression
        assert rows.reason.unit == "rows"
        assert not compare_metric("rows", [10], [10],
                                  unit="rows").is_regression


class TestNegativeFloorsRejected:
    @pytest.mark.parametrize("field", ["min_change", "min_seconds"])
    def test_check_options(self, field):
        with pytest.raises(DefinitionError, match="non-negative"):
            CheckOptions(**{field: -1})

    @pytest.mark.parametrize("argv", [
        ["trace-diff", "a.jsonl", "b.jsonl", "--threshold", "-1"],
        ["trace-diff", "a.jsonl", "b.jsonl", "--min-ms", "-500"],
        ["check", "--min-change", "-1"],
        ["check", "--min-ms", "-1"],
        ["check", "-n", "bw", "-e", "x", "--threshold", "-1"],
    ])
    def test_cli_usage_error(self, argv, tmp_path, capsys):
        from repro.cli.main import main
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--dbdir", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be non-negative" in err
        assert "Traceback" not in err
