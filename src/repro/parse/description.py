"""Input descriptions: the recipe for extracting a run from input files.

"An input description [...] tells perfbase how to extract the required
data for the input parameters and result values from these ASCII input
files." (Section 3.2)

An :class:`InputDescription` bundles an ordered list of
:class:`~repro.parse.locations.Location` objects and an optional
:class:`~repro.parse.separators.RunSeparator`.  Derived parameters are
always evaluated last, regardless of their declaration position, because
they consume what other locations produced.
"""

from __future__ import annotations

from typing import Iterable

from ..core.run import RunData
from ..core.variables import VariableSet
from .locations import DerivedParameter, FixedValue, Location
from .separators import RunSeparator
from .source import SourceText

__all__ = ["InputDescription"]


class InputDescription:
    """Ordered collection of locations plus an optional run separator."""

    def __init__(self, locations: Iterable[Location] = (),
                 separator: RunSeparator | None = None,
                 name: str = ""):
        self.locations: list[Location] = list(locations)
        self.separator = separator
        self.name = name

    def add(self, location: Location) -> "InputDescription":
        """Append a location; returns self for chaining."""
        self.locations.append(location)
        return self

    def set_fixed_value(self, variable: str, value) -> None:
        """Override/add a fixed value (the command-line mechanism of
        Section 3.2: "from the command line").

        An existing fixed value for the same variable is replaced;
        otherwise the new one is appended (running after the original
        locations, so it wins for once-content).
        """
        for i, loc in enumerate(self.locations):
            if isinstance(loc, FixedValue) and loc.variable == variable:
                self.locations[i] = FixedValue(variable, value)
                return
        self.locations.append(FixedValue(variable, value))

    @property
    def provides(self) -> set[str]:
        """All variable names any location of this description can set."""
        out: set[str] = set()
        for loc in self.locations:
            out.update(loc.provides)
        return out

    # -- extraction -----------------------------------------------------

    def extract_chunk(self, source: SourceText,
                      variables: VariableSet) -> RunData:
        """Run every location over one chunk, yielding a partial run.

        Every location stores values that came out of
        :attr:`Variable.parser` or :meth:`Variable.coerce`, so the run is
        typed for ``variables`` (:attr:`RunData.typed_for`) and its
        validation skips coercing them again.
        """
        run = RunData(source_files=[source.filename])
        ordinary = [l for l in self.locations
                    if not isinstance(l, DerivedParameter)]
        derived = [l for l in self.locations
                   if isinstance(l, DerivedParameter)]
        for loc in ordinary:
            loc.extract(source, run, variables)
        for loc in derived:
            loc.extract(source, run, variables)
        run.typed_for = variables
        return run

    def extract(self, text: str, filename: str,
                variables: VariableSet) -> list[RunData]:
        """Extract all runs from one input file's text.

        Without a separator this is Fig. 1 case a) — exactly one run;
        with one it is case b) — one run per chunk.
        """
        source = SourceText(text, filename)
        if self.separator is None:
            return [self.extract_chunk(source, variables)]
        return [self.extract_chunk(chunk, variables)
                for chunk in self.separator.split(source)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sep = " +separator" if self.separator else ""
        return (f"InputDescription({self.name!r}, "
                f"{len(self.locations)} locations{sep})")
