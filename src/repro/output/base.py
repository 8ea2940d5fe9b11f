"""Output format base class.

Section 3.3.4: "The output element generates arbitrarily formatted
output from its input vectors.  Currently implemented output formats are
input files for the Gnuplot plotting program [...] and raw ASCII tables
of data.  Planned output formats include LaTeX tables, XML tables (i.e.
for import into spreadsheet software like MS Excel), and other plotting
tools."

We implement the two shipped formats *and* the planned ones (LaTeX,
XML table, CSV), plus an ASCII bar chart renderer so charts can be
eyeballed without gnuplot installed.

A format renders one or more :class:`~repro.query.vectors.DataVector`
into named text artefacts (e.g. ``plot.gp`` + ``plot.dat``).  Writing to
disk is the caller's business; tests assert on the strings.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..core.datatypes import format_content
from ..core.errors import QueryError
from ..obs.metrics import count
from ..query.vectors import DataVector

__all__ = ["Artifact", "OutputFormat", "register_format", "get_format",
           "available_formats", "format_cell"]


@dataclass(frozen=True)
class Artifact:
    """One rendered output file: a name (relative) and its content."""

    name: str
    content: str

    def write_to(self, directory: str) -> str:
        import os
        path = os.path.join(directory, self.name)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.content)
        return path


def format_cell(value: Any, column) -> str:
    """Render one table cell using the column's datatype.

    A value the datatype cannot render (e.g. a non-numeric string in a
    FLOAT column of a hand-imported run) degrades to ``str(value)`` so
    one bad cell never kills a whole report; each degradation bumps the
    ``output.format_errors`` counter when tracing is active.  Anything
    other than a conversion failure propagates — a bare ``except`` here
    used to hide genuine bugs in custom datatypes.
    """
    if value is None:
        return ""
    try:
        return format_content(value, column.datatype)
    except (TypeError, ValueError, OverflowError):
        count("output.format_errors")
        return str(value)


class OutputFormat(abc.ABC):
    """Base class of output renderers.

    ``options`` is the free-form option mapping taken from the query
    specification (title, filename stem, plot style ...).
    """

    #: registry key, e.g. ``"gnuplot"``
    format_name: str = ""

    def __init__(self, options: Mapping[str, Any] | None = None):
        self.options: dict[str, Any] = dict(options or {})

    @abc.abstractmethod
    def render(self, vectors: Sequence[DataVector]) -> list[Artifact]:
        """Render the input vectors into artefacts."""

    def option(self, key: str, default: Any = None) -> Any:
        return self.options.get(key, default)

    @property
    def stem(self) -> str:
        """Base filename for artefacts."""
        return str(self.option("filename", self.option("title", "query"))
                   ).replace(" ", "_").replace("/", "_")


_REGISTRY: dict[str, type[OutputFormat]] = {}


def register_format(cls: type[OutputFormat]) -> type[OutputFormat]:
    """Class decorator adding a format to the registry."""
    if not cls.format_name:
        raise ValueError(f"{cls.__name__} lacks format_name")
    _REGISTRY[cls.format_name] = cls
    return cls


def get_format(name: str, options: Mapping[str, Any] | None = None
               ) -> OutputFormat:
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise QueryError(
            f"unknown output format {name!r} "
            f"(available: {', '.join(sorted(_REGISTRY))})") from None
    return cls(options)


def available_formats() -> list[str]:
    return sorted(_REGISTRY)
