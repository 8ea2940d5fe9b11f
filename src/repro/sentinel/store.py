"""Baseline management: named performance profiles as experiment data.

A *baseline* is a set of sample traces of one sentinel workload,
captured together under a name ("v1.0", "pre-refactor", "nightly").
The store keeps them in the dedicated baselines experiment
(:data:`~repro.sentinel.assets.EXPERIMENT_NAME`) via the PR2
``json_location`` import path, which makes every baseline queryable,
dumpable and ``fsck``-able like any other experiment.

``perfbase check`` imports its fresh sample traces through the same
path under the reserved :data:`~repro.sentinel.assets.CHECK_LABEL`
(replaced per check), so the last check is queryable too.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

from ..core.errors import DefinitionError, PerfbaseError
from ..core.experiment import Experiment
from ..db.backend import DatabaseServer
from ..parse.importer import Importer
from ..xmlio import parse_experiment_xml, parse_input_xml
from .assets import CHECK_LABEL, EXPERIMENT_NAME, experiment_xml, input_xml

__all__ = ["BaselineInfo", "ElementSamples", "BaselineStore"]

#: the metrics a stored sample provides per element
METRICS = ("wall_s", "cpu_s", "rows", "bytes")


@dataclass(frozen=True)
class BaselineInfo:
    """Summary of one stored baseline."""

    name: str
    workload: str
    n_samples: int
    captured: str
    n_elements: int


@dataclass
class ElementSamples:
    """Per-element metric samples across the runs of one label.

    One value per sample run and metric: the *sum* over the element's
    spans within that run (an element normally produces exactly one
    span per execution)."""

    element: str
    kind: str
    values: dict[str, list[float]] = field(
        default_factory=lambda: {m: [] for m in METRICS})

    def n(self, metric: str = "wall_s") -> int:
        return len(self.values[metric])


class BaselineStore:
    """Named baselines inside the dedicated baselines experiment."""

    def __init__(self, server: DatabaseServer):
        self.server = server
        self._exp: Experiment | None = None

    # -- lifecycle --------------------------------------------------------

    @property
    def exists(self) -> bool:
        return EXPERIMENT_NAME in self.server.list_databases()

    def open(self, *, create: bool = False) -> Experiment:
        """The baselines experiment, created on demand."""
        if self._exp is not None:
            return self._exp
        if not self.exists:
            if not create:
                raise PerfbaseError(
                    f"no baselines experiment {EXPERIMENT_NAME!r} yet "
                    "— capture one with `perfbase baseline add`")
            definition = parse_experiment_xml(experiment_xml())
            self._exp = Experiment.create(
                self.server, definition.name,
                list(definition.variables), definition.info)
        else:
            self._exp = Experiment.open(self.server, EXPERIMENT_NAME)
        return self._exp

    def close(self) -> None:
        if self._exp is not None:
            self._exp.close()
            self._exp = None

    # -- capture ----------------------------------------------------------

    def _import_traces(self, exp: Experiment, label: str,
                       workload: str, trace_paths: list[str],
                       captured: str) -> int:
        imported = 0
        with exp.store.batch():
            for i, path in enumerate(trace_paths):
                description = parse_input_xml(input_xml())
                description.set_fixed_value("baseline", label)
                description.set_fixed_value("workload", workload)
                description.set_fixed_value("sample", i)
                description.set_fixed_value("captured", captured)
                # force: run lifecycle is managed per label here, and a
                # deterministic workload may legitimately record
                # byte-identical sample traces
                report = Importer(exp, description,
                                  force=True).import_file(path)
                imported += report.n_imported
        return imported

    def add(self, name: str, workload: str, trace_paths: list[str], *,
            captured: str | None = None, force: bool = False
            ) -> BaselineInfo:
        """Store ``trace_paths`` as the samples of baseline ``name``."""
        if not name or name.startswith("@"):
            raise DefinitionError(
                f"bad baseline name {name!r} (names starting with '@' "
                "are reserved)")
        exp = self.open(create=True)
        existing = self._runs_of(exp, name)
        if existing:
            if not force:
                raise DefinitionError(
                    f"baseline {name!r} already exists with "
                    f"{len(existing)} sample(s) — use --force to "
                    "replace it")
            for index in existing:
                exp.delete_run(index)
        captured = captured or _now()
        n_imported = self._import_traces(exp, name, workload,
                                         trace_paths, captured)
        samples = self.element_samples(name)
        return BaselineInfo(name=name, workload=workload,
                            n_samples=n_imported,
                            captured=captured, n_elements=len(samples))

    def import_check(self, workload: str, trace_paths: list[str], *,
                     captured: str | None = None) -> int:
        """Import fresh check samples under the reserved label,
        replacing any previous check of the same workload."""
        exp = self.open(create=True)
        for index in self._runs_of(exp, CHECK_LABEL,
                                   workload=workload):
            exp.delete_run(index)
        return self._import_traces(exp, CHECK_LABEL, workload,
                                   trace_paths, captured or _now())

    # -- introspection -----------------------------------------------------

    def _runs_of(self, exp: Experiment, label: str, *,
                 workload: str | None = None) -> list[int]:
        out = []
        for index in exp.run_indices():
            once = exp.store.load_once(index)
            if once.get("baseline") != label:
                continue
            if workload is not None and once.get("workload") != workload:
                continue
            out.append(index)
        return out

    def baselines(self) -> list[BaselineInfo]:
        """Every stored baseline (the reserved check label excluded)."""
        if not self.exists:
            return []
        exp = self.open()
        grouped: dict[str, list[dict]] = {}
        for index in exp.run_indices():
            once = exp.store.load_once(index)
            name = once.get("baseline", "")
            if not name or name == CHECK_LABEL:
                continue
            once["_n_elements"] = len({
                ds.get("element")
                for ds in exp.store.load_datasets(index)})
            grouped.setdefault(name, []).append(once)
        infos = []
        for name in sorted(grouped):
            runs = grouped[name]
            infos.append(BaselineInfo(
                name=name,
                workload=str(runs[0].get("workload", "")),
                n_samples=len(runs),
                captured=max(str(r.get("captured", "")) for r in runs),
                n_elements=max(r["_n_elements"] for r in runs)))
        return infos

    def get(self, name: str) -> BaselineInfo:
        for info in self.baselines():
            if info.name == name:
                return info
        known = ", ".join(i.name for i in self.baselines()) or "none"
        raise PerfbaseError(
            f"no baseline named {name!r} (stored: {known})")

    def remove(self, name: str) -> int:
        """Delete every run of baseline ``name``; returns the count."""
        exp = self.open()
        indices = self._runs_of(exp, name)
        if not indices:
            raise PerfbaseError(f"no baseline named {name!r}")
        for index in indices:
            exp.delete_run(index)
        return len(indices)

    def element_samples(self, label: str, *,
                        workload: str | None = None
                        ) -> dict[str, ElementSamples]:
        """Per-element metric samples of one label, one value per run."""
        exp = self.open()
        out: dict[str, ElementSamples] = {}
        for index in self._runs_of(exp, label, workload=workload):
            per_run: dict[str, dict[str, float]] = {}
            kinds: dict[str, str] = {}
            for ds in exp.store.load_datasets(index):
                element = str(ds.get("element"))
                kinds[element] = str(ds.get("kind", ""))
                sums = per_run.setdefault(
                    element, {m: 0.0 for m in METRICS})
                for metric in METRICS:
                    sums[metric] += float(ds.get(metric, 0) or 0)
            for element, sums in per_run.items():
                samples = out.setdefault(element, ElementSamples(
                    element=element, kind=kinds[element]))
                for metric in METRICS:
                    samples.values[metric].append(sums[metric])
        return out


def _now() -> str:
    return datetime.datetime.now().isoformat(timespec="seconds")
