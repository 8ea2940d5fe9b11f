"""Importing binary traces into an experiment.

The trace counterpart of the ASCII input description: a
:class:`TraceImportDescription` maps trace metadata keys to once-
variables and the event stream to data sets, in one of two modes:

* ``events`` — one data set per trace record (variables for timestamp,
  event name, process and value);
* ``summary`` — one data set per (event, process) pair with the record
  count and the sum/mean of the values (the usual profile view).

Traces import through the ASCII importer's own store step: its
duplicate-import guard (keyed on the binary content), missing-content
policies, fault site and counters apply unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..core.errors import InputError
from ..core.experiment import Experiment
from ..core.run import RunData
from ..parse.importer import Importer, ImportReport, MissingPolicy
from .format import Trace, TraceReader

__all__ = ["TraceImportDescription", "TraceImporter"]


@dataclass
class TraceImportDescription:
    """How to map a trace onto experiment variables.

    Attributes
    ----------
    meta:
        trace metadata key -> once-variable name.
    mode:
        ``"events"`` or ``"summary"``.
    timestamp / event / process / value:
        data-set variable names for the events mode (unused names may
        be set to ``None`` to drop that field).
    count / total / mean:
        data-set variable names for the summary mode (``None`` drops).
    """

    meta: Mapping[str, str] = field(default_factory=dict)
    mode: str = "summary"
    timestamp: str | None = "time"
    event: str | None = "event"
    process: str | None = "process"
    value: str | None = "value"
    count: str | None = "count"
    total: str | None = "total"
    mean: str | None = "mean"

    def __post_init__(self):
        if self.mode not in ("events", "summary"):
            raise InputError(
                f"unknown trace import mode {self.mode!r}")

    # -- conversion -----------------------------------------------------

    def to_run(self, trace: Trace, filename: str) -> RunData:
        once = {}
        for key, variable in self.meta.items():
            if key in trace.meta:
                once[variable] = trace.meta[key]
        if self.mode == "events":
            datasets = []
            for r in trace.records:
                ds = {}
                if self.timestamp:
                    ds[self.timestamp] = r.timestamp
                if self.event:
                    ds[self.event] = r.event
                if self.process:
                    ds[self.process] = r.process
                if self.value:
                    ds[self.value] = r.value
                datasets.append(ds)
        else:
            groups: dict[tuple[str, int], list[float]] = {}
            for r in trace.records:
                groups.setdefault((r.event, r.process),
                                  []).append(r.value)
            datasets = []
            for (event, process), values in sorted(groups.items()):
                ds = {}
                if self.event:
                    ds[self.event] = event
                if self.process:
                    ds[self.process] = process
                if self.count:
                    ds[self.count] = len(values)
                if self.total:
                    ds[self.total] = sum(values)
                if self.mean:
                    ds[self.mean] = sum(values) / len(values)
                datasets.append(ds)
        return RunData(once=once, datasets=datasets,
                       source_files=[filename])


class TraceImporter:
    """Imports PBT1 traces into an experiment.

    Each trace goes through :meth:`Importer.import_content`, so the
    duplicate-import guard, the missing-content policy, the
    ``import.store`` fault site, the ``store_run`` span and the
    ``import.*`` counters are those of an ASCII import.
    """

    def __init__(self, experiment: Experiment,
                 description: TraceImportDescription, *,
                 missing: MissingPolicy = MissingPolicy.DEFAULT,
                 force: bool = False):
        self.experiment = experiment
        self.description = description
        self._importer = Importer(experiment, missing=missing,
                                  force=force)

    def import_bytes(self, data: bytes,
                     filename: str = "<trace>") -> ImportReport:
        return self._importer.import_content(
            data, filename, lambda: [self.description.to_run(
                TraceReader.from_bytes(data), filename)])

    def import_file(self, path: str) -> ImportReport:
        with open(path, "rb") as fh:
            return self.import_bytes(fh.read(), str(path))

    def import_files(self, paths) -> ImportReport:
        """Import many traces as one storage batch, as
        :meth:`Importer.import_files` imports input files: under the
        discard policy a malformed or unreadable trace is skipped and
        reported, and the others are stored."""
        return self._importer.import_batch(paths, self.import_file)
