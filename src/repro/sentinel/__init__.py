"""Continuous regression sentinel: perfbase watching perfbase.

The sentinel closes the loop the paper's Fig. 8 opens: where perfbase
lets a human *find* a planted performance bug by querying stored
results, the sentinel runs the finding automatically.  A **baseline**
is a set of sample traces of a declared workload
(:mod:`~repro.sentinel.workloads`), captured under a name and stored —
as ordinary experiment data — in a dedicated baselines experiment
(:mod:`~repro.sentinel.store`).  ``perfbase check`` re-runs the
workload, imports the fresh traces through the same PR2
``json_location`` path, and compares the per-element distributions
statistically (:mod:`~repro.sentinel.compare`), exiting 3 on a
regression so CI can gate on it (:mod:`~repro.sentinel.check`).
"""

from .assets import CHECK_LABEL, EXPERIMENT_NAME
from .check import (EXIT_REGRESSION, CheckOutcome, capture_baseline,
                    run_check)
from .compare import (CheckOptions, CheckReport, ElementVerdict,
                      MetricComparison, compare_samples)
from .store import BaselineInfo, BaselineStore, ElementSamples
from .workloads import (DEFAULT_WORKLOAD, SUITE, SentinelWorkload,
                        get_workload, run_samples)

__all__ = [
    "EXPERIMENT_NAME", "CHECK_LABEL",
    "EXIT_REGRESSION", "CheckOutcome", "capture_baseline", "run_check",
    "CheckOptions", "CheckReport", "ElementVerdict", "MetricComparison",
    "compare_samples",
    "BaselineInfo", "BaselineStore", "ElementSamples",
    "DEFAULT_WORKLOAD", "SUITE", "SentinelWorkload", "get_workload",
    "run_samples",
]
