"""Runs and data sets.

"Each execution of the software is a *run* within the experiment, and is
stored as a set of input parameters and result values. [...] Such vectors
of parameters and results are typically related element-wise when they
represent the columns of a table.  Each tuple of vector elements is then
called a *data set*." (Section 3)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain
from typing import Any, Iterable, Iterator, Mapping

from .errors import DefinitionError, InputError
from .variables import Occurrence, Variable, VariableSet

__all__ = ["DataSet", "RunData", "RunRecord"]


@dataclass(frozen=True)
class DataSet:
    """One tuple of element-wise related multi-occurrence content.

    A data set maps variable names to the values of one table row of the
    input file (e.g. one line of the ``b_eff_io`` result table).
    """

    values: tuple[tuple[str, Any], ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "DataSet":
        return cls(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, Any]:
        return dict(self.values)

    def __getitem__(self, name: str) -> Any:
        for key, value in self.values:
            if key == name:
                return value
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(key == name for key, _ in self.values)

    def names(self) -> list[str]:
        return [key for key, _ in self.values]


class RunData:
    """The content of one run before it is stored: once-values plus a
    list of data sets.

    This is what the import engine produces from input files and what the
    storage layer persists.  Validation against the experiment's variable
    set happens in :meth:`validate`.
    """

    def __init__(self,
                 once: Mapping[str, Any] | None = None,
                 datasets: Iterable[Mapping[str, Any]] | None = None,
                 source_files: Iterable[str] = (),
                 created: datetime | None = None):
        #: values of once-occurrence variables
        self.once: dict[str, Any] = dict(once or {})
        #: list of data sets (dicts of multiple-occurrence variable values)
        self.datasets: list[dict[str, Any]] = [
            dict(ds) for ds in (datasets or [])]
        #: names of the input files the run was imported from
        self.source_files: list[str] = list(source_files)
        #: content checksums per source file (duplicate-import guard);
        #: filled by the importer, may be missing for programmatic runs
        self.file_checksums: dict[str, str | None] = {}
        self.created = created
        #: the :class:`VariableSet` every value was parsed or coerced
        #: against, set by the import engine
        #: (:meth:`repro.parse.InputDescription.extract_chunk`); ``None``
        #: while values may still need coercion.  :meth:`validate`
        #: skips per-value coercion only for this very object.
        self.typed_for: VariableSet | None = None

    def merge(self, other: "RunData") -> None:
        """Merge another partial run into this one (Fig. 1 case d: data
        from multiple input files forms a single run).

        Once-values must not conflict; data sets are concatenated.
        """
        for name, value in other.once.items():
            if name in self.once and self.once[name] != value:
                raise InputError(
                    f"conflicting content for once-variable {name!r} when "
                    f"merging inputs: {self.once[name]!r} vs {value!r}")
            self.once[name] = value
        self.datasets.extend(other.datasets)
        self.source_files.extend(other.source_files)
        self.file_checksums.update(other.file_checksums)
        if other.typed_for is not self.typed_for:
            self.typed_for = None  # an untyped or differently typed part

    def validate(self, variables: VariableSet, *,
                 require_all: bool = False,
                 use_defaults: bool = True) -> list[str]:
        """Validate & normalise this run against the experiment variables.

        Values are coerced to their declared datatype and checked against
        whitelists — unless the run is typed for ``variables`` (see
        :attr:`typed_for`): the parser already did both, cell by cell,
        so only the structure is checked.  Behaviour for variables
        without content follows Section 3.2: with ``use_defaults``
        missing variables take their declared default; variables may
        also stay without content — unless ``require_all`` is set, in
        which case the list of missing names makes the run rejectable by
        the caller.

        Returns the names of variables that ended up without content.
        """
        # structure: every data-set name is a known multiple-occurrence
        # variable, every once-name a known once-variable
        columns: dict[str, Variable] = {}
        for name in dict.fromkeys(chain.from_iterable(self.datasets)):
            var = variables[name]
            if var.occurrence is not Occurrence.MULTIPLE:
                raise InputError(
                    f"once-variable {name!r} appears in a data set")
            columns[name] = var
        for name in self.once:
            if name not in variables:
                raise DefinitionError(
                    f"run contains unknown variable {name!r}")
            if variables[name].occurrence is not Occurrence.ONCE:
                raise InputError(
                    f"multiple-occurrence variable {name!r} has "
                    "once-content")
        if self.typed_for is not variables:
            for name, value in self.once.items():
                self.once[name] = variables[name].coerce(value)
            for ds in self.datasets:
                for name, value in ds.items():
                    ds[name] = columns[name].coerce(value)
        missing: list[str] = []
        for var in variables:
            if var.occurrence is Occurrence.ONCE:
                if var.name in self.once:
                    continue
                if use_defaults and var.default is not None:
                    self.once[var.name] = var.default
                else:
                    missing.append(var.name)
            elif var.name not in columns:
                if use_defaults and var.default is not None:
                    for ds in self.datasets:
                        ds[var.name] = var.default
                else:
                    missing.append(var.name)
        if require_all and missing:
            raise InputError(
                "input provides no content for variables: "
                + ", ".join(sorted(missing)))
        return missing

    def __len__(self) -> int:
        return len(self.datasets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RunData(once={len(self.once)} vars, "
                f"{len(self.datasets)} datasets)")


@dataclass(frozen=True)
class RunRecord:
    """A stored run as listed by status retrieval: index, creation time,
    source files and the synopsis of its once-content."""

    index: int
    created: datetime
    source_files: tuple[str, ...]
    n_datasets: int
    once: Mapping[str, Any] = field(default_factory=dict)

    def __iter__(self) -> Iterator:
        return iter((self.index, self.created, self.source_files,
                     self.n_datasets))
