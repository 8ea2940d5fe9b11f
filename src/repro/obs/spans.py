"""Trace spans: the unit of the observability subsystem.

A :class:`Span` records one timed operation — a query element, a DB
statement, an import of one file, a vector transfer between cluster
nodes.  Spans nest: every span knows its parent, so a finished trace is
a forest whose roots are whole commands (a query execution, an import
batch) and whose leaves are individual SQL statements.

Spans are plain data.  They are produced by
:class:`~repro.obs.tracer.Tracer` and consumed by the sinks of
:mod:`repro.obs.sinks`; nothing here touches the database or query
layers, so every layer of the system can depend on this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["Span", "ELEMENT_KINDS", "ELEMENT_KIND_ORDER"]

#: span kinds produced by query elements (Section 3.3's four kinds, in
#: the section's order); the element-span set of a query run is its
#: logical execution record
ELEMENT_KIND_ORDER = ("source", "operator", "combiner", "output")
ELEMENT_KINDS = frozenset(ELEMENT_KIND_ORDER)


@dataclass
class Span:
    """One timed, attributed operation inside a trace.

    ``start``/``end`` are ``time.perf_counter()`` readings (monotonic,
    comparable only within one process); ``cpu_start``/``cpu_end`` come
    from ``time.process_time()``.  ``attributes`` carries free-form
    context: SQL text, row/byte counters, element kind details.
    """

    span_id: int
    parent_id: int | None
    name: str
    kind: str = "span"
    start: float = 0.0
    end: float | None = None
    cpu_start: float = 0.0
    cpu_end: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    # -- derived ---------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def wall_seconds(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def cpu_seconds(self) -> float:
        if self.cpu_end is None:
            return 0.0
        return self.cpu_end - self.cpu_start

    @property
    def rows(self) -> int:
        """Row counter (0 when the operation moved no rows)."""
        return int(self.attributes.get("rows", 0) or 0)

    @property
    def bytes(self) -> int:
        """Approximate byte counter (0 when not applicable)."""
        return int(self.attributes.get("bytes", 0) or 0)

    def add(self, key: str, amount: int | float) -> None:
        """Increment a numeric attribute counter."""
        self.attributes[key] = self.attributes.get(key, 0) + amount

    def contains(self, other: "Span") -> bool:
        """Whether ``other``'s interval lies within this span's."""
        if self.end is None or other.end is None:
            return False
        return self.start <= other.start and other.end <= self.end

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "cpu_start": self.cpu_start,
            "cpu_end": self.cpu_end,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Span":
        return cls(
            span_id=int(data["span_id"]),
            parent_id=(None if data.get("parent_id") is None
                       else int(data["parent_id"])),
            name=str(data["name"]),
            kind=str(data.get("kind", "span")),
            start=float(data.get("start", 0.0)),
            end=(None if data.get("end") is None
                 else float(data["end"])),
            cpu_start=float(data.get("cpu_start", 0.0)),
            cpu_end=(None if data.get("cpu_end") is None
                     else float(data["cpu_end"])),
            attributes=dict(data.get("attributes", {})),
        )
