"""The import engine: turning input files into stored runs.

Implements the file-to-run mappings of Fig. 1:

a) one file, one description → one run (:meth:`Importer.import_file`);
b) one file with run separators → multiple runs (same entry point);
c) multiple files, one description → one run each
   (:meth:`Importer.import_files`);
d) multiple files, one description each, merged → a single run
   (:meth:`Importer.import_merged` — "collect outputs of different
   sources for a single run ... without needing to merge them into a
   single input file").

Also implements the batch-import behaviours of Section 3.2: the
missing-content policy (:class:`MissingPolicy`) and the duplicate-import
guard ("without explicit confirmation, importing data from the same
input file more than once is not possible").
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .. import faults as _faults
from ..core.errors import (DataTypeError, DuplicateImportError,
                           InputError)
from ..core.experiment import Experiment
from ..core.run import RunData
from ..db.checksums import content_checksum
from ..obs.metrics import count
from ..obs.tracer import maybe_span
from .description import InputDescription

__all__ = ["MissingPolicy", "ImportReport", "Importer"]


class MissingPolicy(enum.Enum):
    """What to do when a run lacks content for some variables
    (Section 3.2's command-line switches)."""

    DEFAULT = "default"   #: use declared defaults, leave the rest empty
    EMPTY = "empty"       #: leave variables without content (no defaults)
    DISCARD = "discard"   #: silently skip such runs (batch imports)
    REJECT = "reject"     #: raise, aborting the import


@dataclass
class ImportReport:
    """Outcome of an import operation."""

    run_indices: list[int] = field(default_factory=list)
    discarded: int = 0
    duplicates: list[str] = field(default_factory=list)
    missing: dict[int, list[str]] = field(default_factory=dict)
    #: files dropped under the discard policy, with the reason
    failed: dict[str, str] = field(default_factory=dict)

    @property
    def n_imported(self) -> int:
        return len(self.run_indices)

    def merge(self, other: "ImportReport") -> None:
        self.run_indices.extend(other.run_indices)
        self.discarded += other.discarded
        self.duplicates.extend(other.duplicates)
        self.missing.update(other.missing)
        self.failed.update(other.failed)


class Importer:
    """Imports input files into an :class:`Experiment`.

    Parameters
    ----------
    experiment:
        Target experiment (the acting user needs input access).
    description:
        Default input description for single-description imports.
    missing:
        Missing-content policy, default :attr:`MissingPolicy.DEFAULT`.
    force:
        Allow re-importing files whose content was imported before
        (the "explicit confirmation" switch).
    """

    def __init__(self, experiment: Experiment,
                 description: InputDescription | None = None, *,
                 missing: MissingPolicy = MissingPolicy.DEFAULT,
                 force: bool = False):
        self.experiment = experiment
        self.description = description
        self.missing = missing
        self.force = force

    # -- internals ---------------------------------------------------------

    def _check_duplicate(self, content: str | bytes, filename: str) -> str:
        checksum = content_checksum(content)
        previous = self.experiment.store.find_import(checksum)
        if previous is not None and not self.force:
            raise DuplicateImportError(filename, previous)
        return checksum

    def _store(self, run: RunData, report: ImportReport) -> None:
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.check("import.store",
                                 datasets=len(run.datasets))
        use_defaults = self.missing is not MissingPolicy.EMPTY
        try:
            missing = run.validate(
                self.experiment.variables,
                require_all=self.missing in (MissingPolicy.DISCARD,
                                             MissingPolicy.REJECT),
                use_defaults=use_defaults)
        except InputError:
            if self.missing is MissingPolicy.DISCARD:
                report.discarded += 1
                count("import.runs_discarded")
                return
            raise
        with maybe_span("store_run", kind="import.run",
                        datasets=len(run.datasets)) as span:
            index = self.experiment.store_validated_run(run)
            if span is not None:
                span.attributes["run_index"] = index
                span.attributes["rows"] = len(run.datasets)
        report.run_indices.append(index)
        if missing:
            report.missing[index] = missing
        count("import.runs_stored")
        count("import.datasets_stored", len(run.datasets))
        if missing:
            count("import.runs_missing_content")

    def _read(self, path: str) -> str:
        if _faults.ACTIVE is not None:
            _faults.ACTIVE.check("import.read", file=str(path))
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            return fh.read()

    def _extract(self, desc: InputDescription, text: str,
                 filename: str) -> list[RunData]:
        """The runs of one input text.  Content that does not parse in
        its variable's datatype, or fails the whitelist without a
        default, is bad input: an :class:`InputError` naming the file
        (so the discard policy skips just this file)."""
        try:
            return desc.extract(text, filename, self.experiment.variables)
        except DataTypeError as exc:
            raise InputError(f"{filename}: {exc}") from exc

    def _description(self,
                     description: InputDescription | None
                     ) -> InputDescription:
        desc = description or self.description
        if desc is None:
            raise InputError("no input description given")
        return desc

    # -- Fig. 1 cases a) and b) ---------------------------------------------

    def import_text(self, text: str, filename: str = "<string>",
                    description: InputDescription | None = None
                    ) -> ImportReport:
        """Import one input text (cases a/b, programmatic form)."""
        desc = self._description(description)
        return self.import_content(
            text, filename, lambda: self._extract(desc, text, filename))

    def import_content(self, content: str | bytes, filename: str,
                       extract: Callable[[], list[RunData]]
                       ) -> ImportReport:
        """Import the runs ``extract`` finds in one input's
        ``content``: the duplicate-import guard keys on the content,
        and each run is validated and stored under the
        missing-content policy.  Every kind of input (ASCII text,
        binary trace) imports through here."""
        report = ImportReport()
        with maybe_span(filename, kind="import.file",
                        bytes=len(content)) as span:
            count("import.files")
            try:
                checksum = self._check_duplicate(content, filename)
            except DuplicateImportError:
                report.duplicates.append(filename)
                count("import.duplicates_skipped")
                if span is not None:
                    span.attributes["duplicate"] = True
                return report
            runs = extract()
            if not runs:
                # a file yielding no runs must not abort a batch under
                # the discard policy (Section 3.2's batch promise)
                if self.missing is MissingPolicy.DISCARD:
                    report.discarded += 1
                    report.failed[filename] = "no runs found"
                    count("import.files_discarded")
                    if span is not None:
                        span.attributes["discarded"] = True
                    return report
                raise InputError(f"no runs found in {filename}")
            for run in runs:
                run.file_checksums[filename] = checksum
                self._store(run, report)
            if span is not None:
                span.attributes["runs"] = report.n_imported
        return report

    def import_file(self, path: str | os.PathLike,
                    description: InputDescription | None = None
                    ) -> ImportReport:
        """Import one input file (cases a/b)."""
        return self.import_text(self._read(str(path)), str(path),
                                description)

    # -- Fig. 1 case c) ------------------------------------------------------

    def import_files(self, paths: Iterable[str | os.PathLike],
                     description: InputDescription | None = None
                     ) -> ImportReport:
        """Import many files independently: one (or more) runs each.

        Duplicates and (under the discard policy) malformed files,
        files with content that does not parse or fails a whitelist,
        unreadable files and incomplete runs are skipped without
        aborting the batch — "batch imports of a large number of input
        files without worrying about corrupt or incomplete experiment
        data".  (An unreadable path raises :class:`OSError`, which used
        to abort the whole multi-file import even under DISCARD; it is
        now recorded in :attr:`ImportReport.failed` like any other bad
        file.)

        The whole call runs as one storage batch
        (:meth:`import_batch`).
        """
        return self.import_batch(
            paths, lambda path: self.import_file(path, description))

    def import_batch(self, paths: Iterable[str | os.PathLike],
                     import_one: Callable[[str | os.PathLike],
                                          ImportReport]) -> ImportReport:
        """``import_one`` of each path as one storage batch
        (:meth:`repro.db.ExperimentStore.batch`): one transaction, run
        indices allocated once, meta rows flushed via ``executemany``.
        Under the discard policy a path that raises :class:`InputError`
        or :class:`OSError` is recorded in :attr:`ImportReport.failed`
        and the batch goes on; under any other policy it rolls the
        batch back, leaving the experiment untouched."""
        paths = list(paths)
        report = ImportReport()
        with maybe_span("import_files", kind="import.batch",
                        files=len(paths)) as span:
            with self.experiment.store.batch():
                for path in paths:
                    try:
                        report.merge(import_one(path))
                    except (InputError, OSError) as exc:
                        if self.missing is not MissingPolicy.DISCARD:
                            raise
                        report.discarded += 1
                        report.failed[str(path)] = str(exc)
                        count("import.files_discarded")
            if span is not None:
                span.attributes["runs"] = report.n_imported
        return report

    # -- Fig. 1 case d) ------------------------------------------------------

    def import_merged(self,
                      parts: Sequence[tuple[str | os.PathLike,
                                            InputDescription]]
                      ) -> ImportReport:
        """Merge several (file, description) pairs into a single run.

        None of the descriptions may use a run separator (a multi-run
        chunking cannot be merged into one run unambiguously).
        """
        if not parts:
            raise InputError("import_merged needs at least one part")
        report = ImportReport()
        loaded: list[tuple[str, InputDescription, str]] = []
        for path, desc in parts:
            if desc.separator is not None:
                raise InputError(
                    "run separators are not allowed when merging "
                    "multiple inputs into a single run")
            loaded.append((str(path), desc, self._read(str(path))))
        # check every part's checksum up front: a duplicate discovered
        # mid-merge used to silently discard the already-merged earlier
        # parts — now a duplicate anywhere aborts before anything is
        # merged or stored, and the report names every duplicate part
        checksums: list[str] = []
        for filename, _desc, text in loaded:
            try:
                checksums.append(self._check_duplicate(text, filename))
            except DuplicateImportError:
                report.duplicates.append(filename)
        if report.duplicates:
            count("import.duplicates_skipped", len(report.duplicates))
            return report
        merged: RunData | None = None
        for (filename, desc, text), checksum in zip(loaded, checksums):
            runs = self._extract(desc, text, filename)
            if not runs:
                raise InputError(
                    f"merged import: no run content found in "
                    f"{filename}")
            if len(runs) > 1:
                raise InputError(
                    f"merged import: {filename} yields {len(runs)} "
                    "runs; a merge part must describe exactly one")
            part_run = runs[0]
            part_run.file_checksums[filename] = checksum
            if merged is None:
                merged = part_run
            else:
                merged.merge(part_run)
        assert merged is not None
        self._store(merged, report)
        return report
