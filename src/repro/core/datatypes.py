"""Data types of experiment variables and "smart parsing" of ASCII content.

The paper (Section 3.1) lets each parameter and result value declare a
datatype "like integer, float, text or other types".  perfbase proper knew
integer, float, string, timestamp, boolean, version and duration; we
implement all of them.

Smart parsing (Section 3.2: "perfbase uses meaningful default values and
smart parsing to actually extract the content from the input files that
the user intended") means the extraction is tolerant against surrounding
punctuation, unit suffixes glued to numbers (``256MB``), thousands
separators and varying timestamp formats.
"""

from __future__ import annotations

import enum
import math
import re
from datetime import datetime, timezone
from typing import Any, Callable

from .errors import DataTypeError

__all__ = ["DataType", "parse_content", "compile_parser", "format_content",
           "sql_type", "coerce", "TIMESTAMP_FORMATS"]


class DataType(enum.Enum):
    """Datatype of an experiment variable.

    The ``value`` of each member is the spelling used in the XML control
    files (``<datatype>float</datatype>``).
    """

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    TIMESTAMP = "timestamp"
    BOOLEAN = "boolean"
    VERSION = "version"
    DURATION = "duration"

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        """Resolve an XML datatype spelling (case-insensitive, with the
        aliases ``int``, ``text``, ``bool``, ``date``) to a member."""
        aliases = {
            "int": "integer",
            "text": "string",
            "str": "string",
            "bool": "boolean",
            "date": "timestamp",
            "datetime": "timestamp",
            "time": "duration",
        }
        key = name.strip().lower()
        key = aliases.get(key, key)
        try:
            return cls(key)
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise DataTypeError(
                f"unknown datatype {name!r} (valid: {valid})") from None

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type take part in arithmetic."""
        return self in (DataType.INTEGER, DataType.FLOAT, DataType.DURATION)


#: Timestamp formats recognised by smart parsing, tried in order.  The
#: first entry matches the ``Date of measurement`` line of ``b_eff_io``
#: output files (Fig. 4 of the paper).
TIMESTAMP_FORMATS = (
    "%a %b %d %H:%M:%S %Y",        # Tue Nov 23 18:30:30 2004
    "%a %b %d %H:%M:%S %Z %Y",     # Tue Nov 23 18:30:30 CET 2004
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%d %H:%M:%S.%f",
    "%Y-%m-%dT%H:%M:%S.%f",
    "%Y/%m/%d %H:%M:%S",
    "%d.%m.%Y %H:%M:%S",
    "%Y-%m-%d %H:%M",
    "%Y-%m-%d",
    "%d.%m.%Y",
    "%m/%d/%Y",
)

_INT_RE = re.compile(r"[+-]?\d[\d_,]*")
_FLOAT_RE = re.compile(
    r"[+-]?(?:\d[\d_,]*(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
#: whole tokens :func:`compile_parser` converts without smart parsing
_PLAIN_INT_RE = re.compile(r"[+-]?\d+", re.ASCII)
_PLAIN_FLOAT_RE = re.compile(
    r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?", re.ASCII)
_VERSION_RE = re.compile(r"\d+(?:\.\d+)+(?:[-_.]?[A-Za-z]\w*)?")
_TRUE_WORDS = frozenset({"true", "yes", "on", "1", "enabled", "y", "t"})
_FALSE_WORDS = frozenset({"false", "no", "off", "0", "disabled", "n", "f"})

#: multipliers for duration suffixes, all normalised to seconds
_DURATION_UNITS = {
    "ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3,
    "s": 1.0, "sec": 1.0, "secs": 1.0, "second": 1.0, "seconds": 1.0,
    "m": 60.0, "min": 60.0, "mins": 60.0, "minute": 60.0, "minutes": 60.0,
    "h": 3600.0, "hr": 3600.0, "hour": 3600.0, "hours": 3600.0,
    "d": 86400.0, "day": 86400.0, "days": 86400.0,
}

_DURATION_TOKEN_RE = re.compile(
    r"([+-]?(?:\d+(?:\.\d*)?|\.\d+))\s*([a-zA-Zµ]*)")
_HMS_RE = re.compile(r"^(\d+):(\d\d?)(?::(\d\d?(?:\.\d+)?))?$")


def _strip_number(text: str) -> str:
    """Remove grouping characters from a numeric token."""
    return text.replace(",", "").replace("_", "")


def parse_content(text: str, datatype: DataType) -> Any:
    """Smart-parse ``text`` into a Python value of ``datatype``.

    This is deliberately forgiving: for numeric types the first numeric
    token embedded in the text is used, so ``"256 MBytes"``, ``"=256"``
    and ``"256MB"`` all parse to ``256``.  Raises
    :class:`~repro.core.errors.DataTypeError` if nothing usable is found.
    """
    if text is None:
        raise DataTypeError("cannot parse None")
    stripped = text.strip()
    if datatype is DataType.STRING:
        return stripped
    if not stripped:
        raise DataTypeError(f"empty content for datatype {datatype.value}")

    if datatype is DataType.INTEGER:
        m = _FLOAT_RE.search(stripped)
        if not m:
            raise DataTypeError(f"no integer in {text!r}")
        token = _strip_number(m.group(0))
        try:
            return int(token)
        except ValueError:
            # something like "2.000" — accept if it is integral
            return _integral(float(token), text)

    if datatype is DataType.FLOAT:
        m = _FLOAT_RE.search(stripped)
        if not m:
            raise DataTypeError(f"no float in {text!r}")
        return float(_strip_number(m.group(0)))

    if datatype is DataType.BOOLEAN:
        word = stripped.split()[0].lower().strip(".,;:")
        if word in _TRUE_WORDS:
            return True
        if word in _FALSE_WORDS:
            return False
        raise DataTypeError(f"{text!r} is not a boolean")

    if datatype is DataType.TIMESTAMP:
        return parse_timestamp(stripped)

    if datatype is DataType.VERSION:
        m = _VERSION_RE.search(stripped)
        if not m:
            raise DataTypeError(f"no version string in {text!r}")
        return m.group(0)

    if datatype is DataType.DURATION:
        return parse_duration(stripped)

    raise DataTypeError(f"unhandled datatype {datatype}")  # pragma: no cover


def _integral(value: float, text: Any) -> int:
    """``value`` as an int, or :class:`DataTypeError` if it is not a
    finite whole number (``inf`` and ``nan`` included)."""
    if not math.isfinite(value) or value != math.floor(value):
        raise DataTypeError(f"{text!r} is not an integer value")
    return int(value)


def _from_epoch(epoch: float, text: Any) -> datetime:
    """UTC wall time of a UNIX epoch; :class:`DataTypeError` when the
    platform cannot represent it (``inf``, ``nan``, year > 9999)."""
    try:
        return datetime.fromtimestamp(
            epoch, tz=timezone.utc).replace(tzinfo=None)
    except (OverflowError, ValueError, OSError):
        raise DataTypeError(f"timestamp {text!r} out of range") from None


def compile_parser(datatype: DataType) -> Callable[[str], Any]:
    """The smart parser of ``datatype`` as one callable, built once.

    It returns what :func:`parse_content` returns and raises what it
    raises.  For ``INTEGER`` and ``FLOAT`` a token that is, as a whole,
    a plain ASCII number (``-12``, ``3.5e-2``) is converted directly;
    anything else (padding, units, grouping, Unicode digits) goes
    through :func:`parse_content`.  ``float(text)`` alone would not do:
    it also accepts ``inf``, ``nan`` and ``1_000.5_5``.
    """
    if datatype is DataType.INTEGER:
        plain_int = _PLAIN_INT_RE.fullmatch

        def parse_integer(text: str) -> int:
            if text is not None and plain_int(text):
                try:
                    return int(text)
                except ValueError:  # beyond the int-string digit limit
                    pass
            return parse_content(text, DataType.INTEGER)
        return parse_integer
    if datatype is DataType.FLOAT:
        plain_float = _PLAIN_FLOAT_RE.fullmatch

        def parse_float(text: str) -> float:
            if text is not None and plain_float(text):
                return float(text)
            return parse_content(text, DataType.FLOAT)
        return parse_float
    if datatype is DataType.STRING:
        def parse_string(text: str) -> str:
            if text is None:
                raise DataTypeError("cannot parse None")
            return text.strip()
        return parse_string

    def parse(text: str) -> Any:
        return parse_content(text, datatype)
    return parse


def parse_timestamp(text: str) -> datetime:
    """Parse a timestamp using :data:`TIMESTAMP_FORMATS`.

    Also accepts a bare UNIX epoch number.  Timezone abbreviations that
    :func:`datetime.strptime` cannot resolve (``CEST`` etc.) are dropped
    before retrying, which is what makes the ``b_eff_io`` date line parse
    portably.
    """
    text = text.strip()
    for fmt in TIMESTAMP_FORMATS:
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    # drop an unparsable timezone word, e.g. "Tue Nov 23 18:30:30 CEST 2004"
    no_tz = re.sub(r"\s+[A-Z]{2,5}\s+(\d{4})$", r" \1", text)
    if no_tz != text:
        for fmt in TIMESTAMP_FORMATS:
            try:
                return datetime.strptime(no_tz, fmt)
            except ValueError:
                continue
    try:
        epoch = float(text)
    except ValueError:
        raise DataTypeError(f"unrecognised timestamp {text!r}") from None
    return _from_epoch(epoch, text)


def parse_duration(text: str) -> float:
    """Parse a duration into seconds.

    Accepts ``"0.2 min"``, ``"1h30m"``, ``"90"`` (bare seconds) and
    ``"1:30:05"`` (H:M:S).
    """
    text = text.strip()
    hms = _HMS_RE.match(text)
    if hms:
        h = int(hms.group(1))
        m = int(hms.group(2))
        s = float(hms.group(3)) if hms.group(3) else 0.0
        if hms.group(3) is None:
            # "M:S" form — reinterpret
            return h * 60.0 + m
        return h * 3600.0 + m * 60.0 + s
    total = 0.0
    matched = False
    for num, unit in _DURATION_TOKEN_RE.findall(text):
        if not num:
            continue
        matched = True
        unit = unit.strip().lower()
        if unit == "":
            total += float(num)
        elif unit in _DURATION_UNITS:
            total += float(num) * _DURATION_UNITS[unit]
        else:
            raise DataTypeError(f"unknown duration unit {unit!r} in {text!r}")
    if not matched:
        raise DataTypeError(f"no duration in {text!r}")
    return total


def coerce(value: Any, datatype: DataType) -> Any:
    """Coerce an already-Python value to ``datatype``.

    Unlike :func:`parse_content` this does not hunt through strings; it is
    used for fixed values supplied programmatically and for values read
    back from the database.
    """
    if value is None:
        return None
    if datatype is DataType.STRING:
        return str(value)
    if datatype is DataType.INTEGER:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (int,)):
            return value
        if isinstance(value, float):
            return _integral(value, value)
        return parse_content(str(value), datatype)
    if datatype is DataType.FLOAT:
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        return parse_content(str(value), datatype)
    if datatype is DataType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, (int, float)):
            return bool(value)
        return parse_content(str(value), datatype)
    if datatype is DataType.TIMESTAMP:
        if isinstance(value, datetime):
            return value
        if isinstance(value, (int, float)):
            return _from_epoch(value, value)
        return parse_timestamp(str(value))
    if datatype is DataType.VERSION:
        return parse_content(str(value), datatype)
    if datatype is DataType.DURATION:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        return parse_duration(str(value))
    raise DataTypeError(f"unhandled datatype {datatype}")  # pragma: no cover


def format_content(value: Any, datatype: DataType) -> str:
    """Render a Python value of ``datatype`` as the canonical ASCII form
    used in output tables and gnuplot data files."""
    if value is None:
        return ""
    if datatype is DataType.TIMESTAMP:
        if isinstance(value, datetime):
            return value.strftime("%Y-%m-%d %H:%M:%S")
        return str(value)
    if datatype is DataType.FLOAT:
        return repr(float(value))
    if datatype is DataType.BOOLEAN:
        return "true" if value else "false"
    if datatype is DataType.DURATION:
        return repr(float(value))
    return str(value)


def sql_type(datatype: DataType) -> str:
    """SQL column type used by the storage backend for ``datatype``."""
    return {
        DataType.INTEGER: "INTEGER",
        DataType.FLOAT: "REAL",
        DataType.STRING: "TEXT",
        DataType.TIMESTAMP: "TEXT",
        DataType.BOOLEAN: "INTEGER",
        DataType.VERSION: "TEXT",
        DataType.DURATION: "REAL",
    }[datatype]
