"""Location classes: where to find variable content in an input file.

Section 3.2 enumerates the vocabulary this module implements:

* **named location** — "matches a given string or a regular expression
  and use the text behind (or in front of) this match as content";
* **fixed location** — "retrieves content from a defined row and column
  in the text file";
* **tabular location** — data sets "retrieved via a tabular location
  which contains an arbitrary number of tabular values.  The start of a
  table is defined by a match of a string or regular expression and
  possibly an offset";
* **filename location** — "retrieve content from the name of an input
  file";
* **fixed value** — "defined via a fixed value either within the XML
  file or from the command line";
* **derived parameter** — "an arithmetic relation" over other
  parameters.

All locations derive from :class:`Location` with a common ``extract``
interface (Section 4.1: "all different ways to parse data from an input
file are implemented in classes derived from the same base class,
featuring a common set of methods with identical interfaces").
"""

from __future__ import annotations

import abc
import json
import os
import re
from typing import Any, Sequence

from ..core.errors import DataTypeError, InputError
from ..core.run import RunData
from ..core.variables import Occurrence, Variable, VariableSet
from ..expr import Expression
from .source import SourceText

__all__ = ["Location", "NamedLocation", "FixedLocation", "TabularColumn",
           "TabularLocation", "FilenameLocation", "FixedValue",
           "DerivedParameter", "JsonField", "JsonWhere", "JsonLocation"]


class Location(abc.ABC):
    """Base class of all extraction locations.

    ``extract`` reads from a :class:`SourceText` and writes the content
    it found into a partial :class:`RunData`.  Every value written must
    come from :meth:`Variable.parse` or :meth:`Variable.coerce` of its
    variable: the run counts as typed, and validation does not coerce
    its values again.  Locations that find nothing simply leave the run
    untouched — the missing-content policy is applied later by the
    importer.
    """

    #: names of the variables this location can provide
    @property
    @abc.abstractmethod
    def provides(self) -> tuple[str, ...]:
        ...

    @abc.abstractmethod
    def extract(self, source: SourceText, run: RunData,
                variables: VariableSet) -> None:
        ...

    def _var(self, variables: VariableSet, name: str) -> Variable:
        return variables[name]


class NamedLocation(Location):
    """Content located by a string/regex match.

    Parameters
    ----------
    variable:
        Target variable name.
    match:
        The literal string or regular expression to search for.  For a
        regex with a capture group, group 1 becomes the raw content.
    regex:
        Whether ``match`` is a regular expression.
    direction:
        ``"after"`` (default) takes text behind the match, ``"before"``
        text in front of it.
    word:
        Optional 0-based whitespace-separated word index within the
        selected text; without it, smart parsing of the whole text per
        the variable's datatype applies (which already copes with
        leading ``=``/``:`` and unit suffixes).
    which:
        ``"first"`` (default), ``"last"`` or ``"all"`` occurrence.  With
        ``"all"`` the variable must have multiple occurrence; every hit
        appends one single-variable data set.
    """

    def __init__(self, variable: str, match: str, *, regex: bool = False,
                 direction: str = "after", word: int | None = None,
                 which: str = "first"):
        if direction not in ("after", "before"):
            raise InputError(f"bad direction {direction!r}")
        if which not in ("first", "last", "all"):
            raise InputError(f"bad occurrence selector {which!r}")
        self.variable = variable
        self.match = match
        self.regex = regex
        self.direction = direction
        self.word = word
        self.which = which

    @property
    def provides(self) -> tuple[str, ...]:
        return (self.variable,)

    def _content_of(self, source: SourceText, hit) -> str:
        if self.regex and hit.match and hit.match.groups():
            raw = hit.match.group(1)
        elif self.direction == "after":
            raw = source.after(hit)
        else:
            raw = source.before(hit)
        if self.word is not None:
            words = raw.split()
            if self.word >= len(words):
                raise InputError(
                    f"line {hit.line_index + 1} of {source.filename}: "
                    f"no word {self.word} after match {self.match!r}")
            raw = words[self.word]
        return raw

    def extract(self, source: SourceText, run: RunData,
                variables: VariableSet) -> None:
        var = self._var(variables, self.variable)
        hits = list(source.find(self.match, regex=self.regex))
        if not hits:
            return
        if self.which == "all":
            if var.occurrence is not Occurrence.MULTIPLE:
                raise InputError(
                    f"named location with which='all' needs a multiple-"
                    f"occurrence variable, {var.name!r} is once")
            for hit in hits:
                run.datasets.append(
                    {var.name: var.parse(self._content_of(source, hit))})
            return
        hit = hits[-1] if self.which == "last" else hits[0]
        run.once[var.name] = var.parse(self._content_of(source, hit))


class FixedLocation(Location):
    """Content at a fixed row and column.

    ``row`` is the 1-based line number (negative counts from the file
    end, ``-1`` being the last line); ``column`` the 1-based whitespace-
    separated field.  ``column=0`` takes the entire line.
    """

    def __init__(self, variable: str, row: int, column: int = 0):
        if row == 0:
            raise InputError("row is 1-based; 0 is not a valid row")
        self.variable = variable
        self.row = row
        self.column = column

    @property
    def provides(self) -> tuple[str, ...]:
        return (self.variable,)

    def extract(self, source: SourceText, run: RunData,
                variables: VariableSet) -> None:
        var = self._var(variables, self.variable)
        index = self.row - 1 if self.row > 0 else self.row
        try:
            line = source.line(index)
        except IndexError:
            return
        if self.column == 0:
            raw = line
        else:
            fields = line.split()
            if self.column > len(fields):
                return
            raw = fields[self.column - 1]
        run.once[var.name] = var.parse(raw)


class TabularColumn:
    """One column of a tabular location: variable name + 1-based field
    index in the table rows."""

    def __init__(self, variable: str, field: int):
        if field < 1:
            raise InputError("tabular column fields are 1-based")
        self.variable = variable
        self.field = field

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TabularColumn({self.variable!r}, {self.field})"


class TabularLocation(Location):
    """A table of data sets.

    The table starts ``offset`` lines after the line matching ``start``
    (default offset 1: the line right after the match).  Each table line
    is whitespace-split; every :class:`TabularColumn` must parse in the
    declared datatype for the line to count as a table row.

    ``on_mismatch`` controls what a non-parsing line does: ``"stop"``
    ends the table (default), ``"skip"`` tolerates up to ``max_skip``
    consecutive such lines (needed for files that interleave summary
    rows with data rows, like ``b_eff_io``'s ``total-write`` lines).
    An optional literal/regex ``stop`` match ends the table early.
    """

    def __init__(self, columns: Sequence[TabularColumn], *,
                 start: str | None = None, regex: bool = False,
                 offset: int = 1, stop: str | None = None,
                 stop_regex: bool = False, on_mismatch: str = "stop",
                 max_skip: int = 5, max_rows: int | None = None):
        if not columns:
            raise InputError("tabular location needs at least one column")
        if on_mismatch not in ("stop", "skip"):
            raise InputError(f"bad on_mismatch {on_mismatch!r}")
        self.columns = list(columns)
        self.start = start
        self.regex = regex
        self.offset = offset
        self.stop = stop
        self.stop_regex = stop_regex
        self.on_mismatch = on_mismatch
        self.max_skip = max_skip
        self.max_rows = max_rows

    @property
    def provides(self) -> tuple[str, ...]:
        return tuple(c.variable for c in self.columns)

    @staticmethod
    def _parse_row(line: str, columns: list[tuple[int, Variable]]
                   ) -> dict[str, Any] | None:
        fields = line.split()
        if not fields:
            return None
        row: dict[str, Any] = {}
        for index, var in columns:
            if index >= len(fields):
                return None
            try:
                row[var.name] = var.parse(fields[index])
            except DataTypeError:
                return None
        return row

    def extract(self, source: SourceText, run: RunData,
                variables: VariableSet) -> None:
        columns = []  # (0-based field index, variable), resolved once
        for col in self.columns:
            var = variables[col.variable]
            if var.occurrence is not Occurrence.MULTIPLE:
                raise InputError(
                    f"tabular location column {var.name!r} must be a "
                    "multiple-occurrence variable")
            columns.append((col.field - 1, var))
        if self.start is not None:
            hit = source.first(self.start, regex=self.regex)
            if hit is None:
                return
            first_line = hit.line_index + self.offset
        else:
            first_line = self.offset - 1 if self.offset > 0 else 0
        stop_re = (re.compile(self.stop)
                   if self.stop and self.stop_regex else None)
        skipped = 0
        n_rows = 0
        for i in range(max(first_line, 0), len(source)):
            line = source.line(i)
            if self.stop is not None:
                ended = (stop_re.search(line) if stop_re
                         else self.stop in line)
                if ended:
                    break
            row = self._parse_row(line, columns)
            if row is None:
                if self.on_mismatch == "stop":
                    if n_rows:  # blank/garbage after table body ends it
                        break
                    continue  # still before the table body
                skipped += 1
                if skipped > self.max_skip:
                    break
                continue
            skipped = 0
            run.datasets.append(row)
            n_rows += 1
            if self.max_rows is not None and n_rows >= self.max_rows:
                break


class FilenameLocation(Location):
    """Content extracted from the input file's name.

    Either a ``pattern`` regex with one capture group is applied to the
    basename, or the basename (with extension stripped) is split at
    ``separator`` and the 0-based ``part`` selected — matching the
    paper's example of encoding file system type and node count in the
    output filename (Section 5).
    """

    def __init__(self, variable: str, *, pattern: str | None = None,
                 separator: str = "_", part: int | None = None):
        if (pattern is None) == (part is None):
            raise InputError(
                "filename location needs exactly one of pattern= or part=")
        self.variable = variable
        self.pattern = re.compile(pattern) if pattern else None
        self.separator = separator
        self.part = part

    @property
    def provides(self) -> tuple[str, ...]:
        return (self.variable,)

    def extract(self, source: SourceText, run: RunData,
                variables: VariableSet) -> None:
        var = self._var(variables, self.variable)
        base = os.path.basename(source.filename)
        stem = base.rsplit(".", 1)[0] if "." in base else base
        if self.pattern is not None:
            m = self.pattern.search(base)
            if not m:
                return
            raw = m.group(1) if m.groups() else m.group(0)
        else:
            parts = stem.split(self.separator)
            if self.part >= len(parts):
                return
            raw = parts[self.part]
        run.once[var.name] = var.parse(raw)


class FixedValue(Location):
    """A constant value independent of the data files (XML-defined or
    overridden from the command line)."""

    def __init__(self, variable: str, value: Any):
        self.variable = variable
        self.value = value

    @property
    def provides(self) -> tuple[str, ...]:
        return (self.variable,)

    def extract(self, source: SourceText, run: RunData,
                variables: VariableSet) -> None:
        var = self._var(variables, self.variable)
        run.once[var.name] = var.coerce(self.value)


_MISSING = object()


def _json_lookup(record: Any, path: str) -> Any:
    """Resolve a dotted key path (``attributes.rows``) in a JSON
    object; returns ``_MISSING`` when any step is absent."""
    value = record
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return _MISSING
        value = value[key]
    return value


class JsonField:
    """One extracted field of a :class:`JsonLocation`: target variable
    plus the dotted key path within each JSON record, with an optional
    ``default`` (raw text, parsed like file content) used when the key
    is absent or null."""

    def __init__(self, variable: str, key: str,
                 default: str | None = None):
        self.variable = variable
        self.key = key
        self.default = default

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JsonField({self.variable!r}, {self.key!r})"


class JsonWhere:
    """A record filter of a :class:`JsonLocation`.

    ``op="eq"`` (default) keeps records whose value at ``key`` equals
    ``value`` (string comparison); ``op="in"`` keeps records whose
    value is one of the comma-separated alternatives in ``value``.
    Records missing ``key`` never match.
    """

    def __init__(self, key: str, value: str, op: str = "eq"):
        if op not in ("eq", "in"):
            raise InputError(f"bad json where op {op!r}")
        self.key = key
        self.value = value
        self.op = op
        self._alternatives = (frozenset(v.strip()
                                        for v in value.split(","))
                              if op == "in" else None)

    def matches(self, record: Any) -> bool:
        found = _json_lookup(record, self.key)
        if found is _MISSING:
            return False
        if self.op == "in":
            return str(found) in self._alternatives
        return str(found) == self.value


class JsonLocation(Location):
    """Data sets extracted from JSON-lines input files.

    Each line of the input that parses as a JSON object and passes all
    ``where`` filters yields one data set; every :class:`JsonField`
    maps a dotted key path of the record to a multiple-occurrence
    variable (the JSON analogue of a tabular location's columns).
    Lines that are not JSON objects are not data lines and are skipped,
    like non-table lines around a tabular location.

    This is what lets perfbase import its *own* execution traces
    (JSON-lines span records from
    :class:`~repro.obs.sinks.JsonLinesSink`) as a regular experiment —
    the meta-experiment of the observability subsystem.
    """

    def __init__(self, fields: Sequence[JsonField], *,
                 where: Sequence[JsonWhere] = ()):
        if not fields:
            raise InputError("json location needs at least one field")
        self.fields = list(fields)
        self.where = list(where)

    @property
    def provides(self) -> tuple[str, ...]:
        return tuple(f.variable for f in self.fields)

    def _dataset(self, record: Any,
                 variables: VariableSet) -> dict[str, Any] | None:
        row: dict[str, Any] = {}
        for fld in self.fields:
            var = variables[fld.variable]
            value = _json_lookup(record, fld.key)
            if value is _MISSING or value is None:
                if fld.default is None:
                    return None  # incomplete record: not a data set
                row[var.name] = var.parse(fld.default)
                continue
            try:
                row[var.name] = var.coerce(value)
            except DataTypeError:
                return None
        return row

    def extract(self, source: SourceText, run: RunData,
                variables: VariableSet) -> None:
        for fld in self.fields:
            var = variables[fld.variable]
            if var.occurrence is not Occurrence.MULTIPLE:
                raise InputError(
                    f"json location field {var.name!r} must be a "
                    "multiple-occurrence variable")
        for i in range(len(source)):
            line = source.line(i).strip()
            if not line.startswith("{"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(record, dict):
                continue
            if not all(w.matches(record) for w in self.where):
                continue
            row = self._dataset(record, variables)
            if row is not None:
                run.datasets.append(row)


class DerivedParameter(Location):
    """A parameter computed from other parameters by an arithmetic
    expression, e.g. total data volume from chunk size times process
    count.

    Once-variables are computed from the once-content after all other
    locations ran; if the expression references any multiple-occurrence
    variable, the target must be multiple too and the value is computed
    per data set.
    """

    def __init__(self, variable: str, expression: str):
        self.variable = variable
        self.expression = Expression(expression)

    @property
    def provides(self) -> tuple[str, ...]:
        return (self.variable,)

    def extract(self, source: SourceText, run: RunData,
                variables: VariableSet) -> None:
        var = self._var(variables, self.variable)
        needs = self.expression.variables
        uses_multi = any(
            n in variables and
            variables[n].occurrence is Occurrence.MULTIPLE
            for n in needs)
        if uses_multi:
            if var.occurrence is not Occurrence.MULTIPLE:
                raise InputError(
                    f"derived once-parameter {var.name!r} cannot depend "
                    "on multiple-occurrence variables")
            for ds in run.datasets:
                env = dict(run.once)
                env.update(ds)
                if needs <= env.keys():
                    ds[var.name] = var.coerce(self.expression(env))
        else:
            if needs <= run.once.keys():
                run.once[var.name] = var.coerce(
                    self.expression(run.once))
