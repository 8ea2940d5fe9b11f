"""Orchestration of `perfbase baseline add` and `perfbase check`.

Capture: run the declared workload N times under tracing, import the
sample traces into the baselines experiment under a name.  Check:
re-run the workload, import the fresh traces under the reserved check
label, compare distributions per element, render the report, write the
machine-readable verdict, and translate regressions into exit code 3
(the same CI convention as ``trace-diff --fail-on-regression``).

Every step feeds ``sentinel.*`` counters into the process registry
(:data:`repro.obs.REGISTRY`), whether or not a tracer is active; a
traced run reports them via ``--metrics`` or ``perfbase metrics
dump``.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

from ..core.errors import PerfbaseError
from ..db.backend import DatabaseServer
from ..obs.metrics import count
from .compare import CheckOptions, CheckReport, compare_samples
from .store import BaselineInfo, BaselineStore
from .workloads import DEFAULT_WORKLOAD, get_workload, run_samples

__all__ = ["CheckOutcome", "EXIT_REGRESSION", "capture_baseline",
           "run_check"]

#: exit status of `perfbase check` when a regression is found (same
#: convention as `perfbase trace-diff --fail-on-regression`)
EXIT_REGRESSION = 3


@dataclass
class CheckOutcome:
    """All reports of one `perfbase check` plus the exit code."""

    reports: list[CheckReport]
    exit_code: int

    @property
    def has_regressions(self) -> bool:
        return self.exit_code == EXIT_REGRESSION

    def to_dict(self) -> dict:
        return {"verdict": ("regression" if self.has_regressions
                            else "pass"),
                "exit_code": self.exit_code,
                "checks": [r.to_dict() for r in self.reports]}


def capture_baseline(server: DatabaseServer, name: str, *,
                     workload: str = DEFAULT_WORKLOAD,
                     samples: int = 5, force: bool = False,
                     workdir: str | os.PathLike | None = None
                     ) -> BaselineInfo:
    """Run the workload ``samples`` times and store the traces as
    baseline ``name``."""
    wl = get_workload(workload)
    store = BaselineStore(server)
    try:
        with _scratch(workdir) as directory:
            paths = run_samples(wl, server, samples, directory,
                                label="base")
            info = store.add(name, wl.name, paths, force=force)
        count("sentinel.baselines.captured")
        count("sentinel.samples.recorded", samples)
        return info
    finally:
        store.close()


def run_check(server: DatabaseServer, *, against: str | None = None,
              all_baselines: bool = False, samples: int = 5,
              options: CheckOptions | None = None,
              json_out: str | os.PathLike | None = None,
              workdir: str | os.PathLike | None = None
              ) -> CheckOutcome:
    """Re-run the suite and compare against stored baselines.

    ``against`` names one baseline; ``all_baselines`` checks every
    stored one; with neither, a single stored baseline is used
    implicitly (more than one is an error prompting for a choice).
    """
    options = options or CheckOptions()
    store = BaselineStore(server)
    try:
        targets = _select_targets(store, against, all_baselines)
        reports: list[CheckReport] = []
        fresh_by_workload: dict[str, dict] = {}
        with _scratch(workdir) as directory:
            for info in targets:
                if info.workload not in fresh_by_workload:
                    wl = get_workload(info.workload)
                    paths = run_samples(wl, server, samples,
                                        directory, label="check")
                    store.import_check(wl.name, paths)
                    count("sentinel.samples.recorded", samples)
                    fresh_by_workload[info.workload] = \
                        store.element_samples("@check",
                                              workload=wl.name)
                base = store.element_samples(info.name)
                report = compare_samples(
                    info.name, info.workload, base,
                    fresh_by_workload[info.workload], options)
                reports.append(report)
                count("sentinel.checks.run")
                count("sentinel.regressions.found",
                       len(report.regressions()))
        exit_code = (EXIT_REGRESSION
                     if any(r.has_regressions for r in reports) else 0)
        outcome = CheckOutcome(reports=reports, exit_code=exit_code)
        if json_out:
            with open(os.fspath(json_out), "w",
                      encoding="utf-8") as fh:
                json.dump(outcome.to_dict(), fh, indent=1,
                          sort_keys=True)
                fh.write("\n")
        return outcome
    finally:
        store.close()


def _select_targets(store: BaselineStore, against: str | None,
                    all_baselines: bool) -> list[BaselineInfo]:
    if against is not None:
        return [store.get(against)]
    infos = store.baselines()
    if not infos:
        raise PerfbaseError(
            "no baselines stored — capture one with "
            "`perfbase baseline add NAME`")
    if all_baselines:
        return infos
    if len(infos) > 1:
        names = ", ".join(i.name for i in infos)
        raise PerfbaseError(
            f"{len(infos)} baselines stored ({names}) — pick one with "
            "--against NAME or check every one with --all")
    return infos


class _scratch:
    """Context manager: the given directory, or a temporary one."""

    def __init__(self, workdir: str | os.PathLike | None):
        self._workdir = workdir
        self._tmp: tempfile.TemporaryDirectory | None = None

    def __enter__(self) -> str:
        if self._workdir is not None:
            os.makedirs(os.fspath(self._workdir), exist_ok=True)
            return os.fspath(self._workdir)
        self._tmp = tempfile.TemporaryDirectory(prefix="perfbase_sentinel_")
        return self._tmp.name

    def __exit__(self, *exc_info) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()
