"""Writers for input descriptions and query specifications.

The experiment-definition writer lives in
:mod:`~repro.xmlio.experiment_xml`; this module completes the set so
all three control-file kinds round-trip through their parsers — which
is what lets programmatically-built pipelines be saved as the XML files
the paper's workflow is organised around.
"""

from __future__ import annotations

from xml.sax.saxutils import escape, quoteattr

from ..core.errors import XMLFormatError
from ..parse.description import InputDescription
from ..parse.locations import (DerivedParameter, FilenameLocation,
                               FixedLocation, FixedValue, NamedLocation,
                               TabularLocation)
from ..query.combiner import Combiner
from ..query.engine import Query
from ..query.operators import Operator
from ..query.outputs import Output
from ..query.source import Source

__all__ = ["input_to_xml", "query_to_xml"]


def _attr(name: str, value) -> str:
    return f" {name}={quoteattr(str(value))}"


def _bool(name: str, value: bool, default: bool) -> str:
    if value == default:
        return ""
    return _attr(name, "yes" if value else "no")


def input_to_xml(description: InputDescription) -> str:
    """Serialise an input description to the Fig. 6 XML vocabulary."""
    lines = ["<input%s>" % (_attr("name", description.name)
                            if description.name else "")]
    for loc in description.locations:
        if isinstance(loc, NamedLocation):
            attrs = (_attr("parameter", loc.variable)
                     + _attr("match", loc.match)
                     + _bool("regex", loc.regex, False))
            if loc.direction != "after":
                attrs += _attr("direction", loc.direction)
            if loc.word is not None:
                attrs += _attr("word", loc.word)
            if loc.which != "first":
                attrs += _attr("which", loc.which)
            lines.append(f"  <named_location{attrs}/>")
        elif isinstance(loc, FixedLocation):
            attrs = (_attr("parameter", loc.variable)
                     + _attr("row", loc.row))
            if loc.column:
                attrs += _attr("column", loc.column)
            lines.append(f"  <fixed_location{attrs}/>")
        elif isinstance(loc, TabularLocation):
            attrs = ""
            if loc.start is not None:
                attrs += _attr("start", loc.start)
            attrs += _bool("regex", loc.regex, False)
            if loc.offset != 1:
                attrs += _attr("offset", loc.offset)
            if loc.stop is not None:
                attrs += _attr("stop", loc.stop)
                attrs += _bool("stop_regex", loc.stop_regex, False)
            if loc.on_mismatch != "stop":
                attrs += _attr("on_mismatch", loc.on_mismatch)
            if loc.max_skip != 5:
                attrs += _attr("max_skip", loc.max_skip)
            if loc.max_rows is not None:
                attrs += _attr("max_rows", loc.max_rows)
            lines.append(f"  <tabular_location{attrs}>")
            for column in loc.columns:
                lines.append(
                    f"    <column{_attr('variable', column.variable)}"
                    f"{_attr('field', column.field)}/>")
            lines.append("  </tabular_location>")
        elif isinstance(loc, FilenameLocation):
            attrs = _attr("parameter", loc.variable)
            if loc.pattern is not None:
                attrs += _attr("pattern", loc.pattern.pattern)
            else:
                attrs += _attr("separator", loc.separator)
                attrs += _attr("part", loc.part)
            lines.append(f"  <filename_location{attrs}/>")
        elif isinstance(loc, FixedValue):
            lines.append(
                f"  <fixed_value{_attr('parameter', loc.variable)}"
                f"{_attr('value', loc.value)}/>")
        elif isinstance(loc, DerivedParameter):
            lines.append(
                f"  <derived_parameter"
                f"{_attr('parameter', loc.variable)}"
                f"{_attr('expression', loc.expression.source)}/>")
        else:  # pragma: no cover - future location kinds
            raise XMLFormatError(
                f"cannot serialise location type {type(loc).__name__}")
    if description.separator is not None:
        sep = description.separator
        attrs = (_attr("match", sep.match)
                 + _bool("regex", sep.regex, False)
                 + _bool("keep_line", sep.keep_line, True))
        if sep.leading != "discard":
            attrs += _attr("leading", sep.leading)
        lines.append(f"  <run_separator{attrs}/>")
    lines.append("</input>")
    return "\n".join(lines) + "\n"


def query_to_xml(query: Query) -> str:
    """Serialise a query to the Fig. 7 XML vocabulary."""
    lines = [f"<query{_attr('name', query.name)}>"]
    for element in query.elements.values():
        if isinstance(element, Source):
            attrs = _attr("id", element.name)
            attrs += _bool("include_run_index",
                           element.include_run_index, False)
            lines.append(f"  <source{attrs}>")
            for spec in element.parameters:
                p_attrs = _attr("name", spec.name)
                if spec.value is not None:
                    p_attrs += _attr("value", ",".join(
                        str(v) for v in spec.value) if spec.op == "in"
                        else spec.value)
                    if spec.op != "==":
                        p_attrs += _attr("op", spec.op)
                p_attrs += _bool("show", spec.show, True)
                lines.append(f"    <parameter{p_attrs}/>")
            if element.runs is not None:
                runs = element.runs
                r_attrs = ""
                if runs.indices is not None:
                    r_attrs += _attr("index", " ".join(
                        str(i) for i in runs.indices))
                if runs.min_index is not None:
                    r_attrs += _attr("min_index", runs.min_index)
                if runs.max_index is not None:
                    r_attrs += _attr("max_index", runs.max_index)
                if runs.since is not None:
                    r_attrs += _attr(
                        "since",
                        runs.since.strftime("%Y-%m-%d %H:%M:%S"))
                if runs.until is not None:
                    r_attrs += _attr(
                        "until",
                        runs.until.strftime("%Y-%m-%d %H:%M:%S"))
                lines.append(f"    <run{r_attrs}/>")
            for result in element.results:
                lines.append(f"    <result{_attr('name', result)}/>")
            lines.append("  </source>")
        elif isinstance(element, Operator):
            attrs = (_attr("id", element.name)
                     + _attr("type", element.op)
                     + _attr("input", " ".join(element.inputs)))
            if element.expression is not None:
                attrs += _attr("expression", element.expression.source)
            if element.factor != 1.0:
                attrs += _attr("factor", element.factor)
            if element.summand != 0.0:
                attrs += _attr("summand", element.summand)
            if element.op == "norm" and element.mode != "max":
                attrs += _attr("mode", element.mode)
            if element.unit is not None:
                attrs += _attr("unit", element.unit.symbol)
            if element.result_name is not None:
                attrs += _attr("result", element.result_name)
            attrs += _bool("use_sql", element.use_sql, True)
            lines.append(f"  <operator{attrs}/>")
        elif isinstance(element, Combiner):
            attrs = (_attr("id", element.name)
                     + _attr("input", " ".join(element.inputs)))
            attrs += _bool("keep_duplicate_parameters",
                           element.keep_duplicate_parameters, False)
            lines.append(f"  <combiner{attrs}/>")
        elif isinstance(element, Output):
            attrs = (_attr("id", element.name)
                     + _attr("input", " ".join(element.inputs))
                     + _attr("format", element.format_name))
            lines.append(f"  <output{attrs}>")
            for key, value in element.options.items():
                if key == "filename" and value == element.name:
                    continue  # the implicit default
                lines.append(f"    <option{_attr('name', key)}>"
                             f"{escape(str(value))}</option>")
            lines.append("  </output>")
        else:  # pragma: no cover - future element kinds
            raise XMLFormatError(
                f"cannot serialise element type {type(element).__name__}")
    lines.append("</query>")
    return "\n".join(lines) + "\n"
