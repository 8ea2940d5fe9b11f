"""Experiment variables: input parameters and result values.

Section 3 of the paper: an experiment is described by *input parameters*
and *result values*.  Either kind may have constant content throughout a
run (``occurrence="once"``) or a vector of content (multiple occurrence);
element-wise related vectors form *data sets*.  Fig. 5 additionally shows
per-variable synopsis, description, datatype, unit, a list of ``<valid>``
content restrictions and a ``<default>``.
"""

from __future__ import annotations

import enum
import keyword
import re
from dataclasses import dataclass, field
from typing import Any

from .datatypes import DataType, coerce, parse_content
from .errors import DataTypeError, DefinitionError
from .units import DIMENSIONLESS, Unit

__all__ = ["Occurrence", "Variable", "Parameter", "Result", "VariableSet",
           "ORD_PREFIX"]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

#: prefix of the synthetic row-order columns the query engine projects
#: (see :mod:`repro.query.pushdown`); no user-named column may use it
ORD_PREFIX = "pb_ord__"


class Occurrence(enum.Enum):
    """How often a variable occurs within one run."""

    ONCE = "once"
    MULTIPLE = "multiple"

    @classmethod
    def from_name(cls, name: str) -> "Occurrence":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise DefinitionError(
                f"unknown occurrence {name!r} (use 'once' or 'multiple')"
            ) from None


@dataclass
class Variable:
    """Common definition of a parameter or result value.

    Attributes
    ----------
    name:
        Identifier, also used as SQL column name (validated).
    synopsis:
        Short human-readable label; used for plot axis/legend text.
    description:
        Longer free-form description.
    datatype:
        A :class:`~repro.core.datatypes.DataType`.
    unit:
        Physical/logical unit; :data:`DIMENSIONLESS` if not given.
    occurrence:
        :attr:`Occurrence.ONCE` for run-constant content,
        :attr:`Occurrence.MULTIPLE` for data-set vectors.
    valid_values:
        Optional whitelist of allowed content ("All other content will
        be rejected", Fig. 5).
    default:
        Optional default used when an input file provides no content.
    """

    name: str
    datatype: DataType = DataType.STRING
    synopsis: str = ""
    description: str = ""
    unit: Unit = field(default_factory=lambda: DIMENSIONLESS)
    occurrence: Occurrence = Occurrence.ONCE
    valid_values: tuple[Any, ...] = ()
    default: Any = None

    #: set by subclasses
    is_result: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise DefinitionError(
                f"invalid variable name {self.name!r}: must be an "
                "identifier (letters, digits, underscore)")
        if keyword.iskeyword(self.name):
            raise DefinitionError(
                f"variable name {self.name!r} is a reserved word")
        if self.name.startswith(ORD_PREFIX):
            raise DefinitionError(
                f"variable name {self.name!r} uses the reserved "
                f"{ORD_PREFIX}* prefix")
        if isinstance(self.datatype, str):
            self.datatype = DataType.from_name(self.datatype)
        if isinstance(self.occurrence, str):
            self.occurrence = Occurrence.from_name(self.occurrence)
        if self.valid_values:
            self.valid_values = tuple(
                coerce(v, self.datatype) for v in self.valid_values)
        if self.default is not None:
            self.default = self.validate(coerce(self.default, self.datatype))

    # -- content handling ------------------------------------------------

    def parse(self, text: str) -> Any:
        """Smart-parse raw ASCII content for this variable and validate
        it against the ``valid_values`` whitelist."""
        value = parse_content(text, self.datatype)
        return self.validate(value)

    def validate(self, value: Any) -> Any:
        """Check a parsed value against the whitelist.

        If the value is not in the whitelist and a default exists, the
        paper's semantics (Fig. 5: invalid content "will be rejected",
        with ``<default>unknown</default>`` as fallback) substitute the
        default; otherwise a :class:`DataTypeError` is raised.
        """
        if not self.valid_values or value in self.valid_values:
            return value
        if self.default is not None:
            return self.default
        raise DataTypeError(
            f"content {value!r} not valid for variable {self.name!r} "
            f"(allowed: {self.valid_values})")

    def coerce(self, value: Any) -> Any:
        """Coerce an already-Python value, then validate it."""
        return self.validate(coerce(value, self.datatype))

    @property
    def kind(self) -> str:
        return "result" if self.is_result else "parameter"

    def axis_label(self) -> str:
        """Label for plots: synopsis (or name) plus unit in brackets."""
        label = self.synopsis or self.name
        if self.unit.symbol:
            label += f" [{self.unit.symbol}]"
        return label


@dataclass
class Parameter(Variable):
    """An input parameter: a constraint under which the run executed."""

    def __post_init__(self):
        super().__post_init__()
        self.is_result = False


@dataclass
class Result(Variable):
    """A result value delivered by the run."""

    def __post_init__(self):
        super().__post_init__()
        self.is_result = True


class VariableSet:
    """Ordered, name-indexed collection of an experiment's variables.

    Supports the evolution operations of Section 3.1 ("Values and
    parameters can be added, modified or removed").
    """

    def __init__(self, variables: list[Variable] | None = None):
        self._vars: dict[str, Variable] = {}
        for v in variables or []:
            self.add(v)

    # -- mutation ---------------------------------------------------------

    def add(self, variable: Variable) -> None:
        if variable.name in self._vars:
            raise DefinitionError(
                f"duplicate variable name {variable.name!r}")
        self._vars[variable.name] = variable

    def remove(self, name: str) -> Variable:
        try:
            return self._vars.pop(name)
        except KeyError:
            raise DefinitionError(f"no variable named {name!r}") from None

    def replace(self, variable: Variable) -> Variable:
        """Modify a variable definition in place; returns the old one."""
        old = self.remove(variable.name)
        self._vars[variable.name] = variable
        return old

    # -- access -----------------------------------------------------------

    def __getitem__(self, name: str) -> Variable:
        try:
            return self._vars[name]
        except KeyError:
            raise DefinitionError(f"no variable named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._vars

    def __iter__(self):
        return iter(self._vars.values())

    def __len__(self) -> int:
        return len(self._vars)

    def names(self) -> list[str]:
        return list(self._vars)

    @property
    def parameters(self) -> list[Parameter]:
        return [v for v in self._vars.values() if not v.is_result]

    @property
    def results(self) -> list[Result]:
        return [v for v in self._vars.values() if v.is_result]

    def once(self) -> list[Variable]:
        """Variables with unique occurrence (stored in the once-table)."""
        return [v for v in self._vars.values()
                if v.occurrence is Occurrence.ONCE]

    def multiple(self) -> list[Variable]:
        """Variables with multiple occurrence (stored per-run tables)."""
        return [v for v in self._vars.values()
                if v.occurrence is Occurrence.MULTIPLE]

    def __eq__(self, other) -> bool:
        if not isinstance(other, VariableSet):
            return NotImplemented
        return self._vars == other._vars
