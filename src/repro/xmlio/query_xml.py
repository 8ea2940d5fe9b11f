"""Query specification XML (paper Fig. 7).

Vocabulary::

    <query [name="..."]>
      <source id="src_old">
        <parameter name="technique" [value="listbased"] [op="=="]
                   [show="no"]/>
        <parameter name="S_chunk"/>           <!-- output dimension -->
        <run [min_index=".."] [max_index=".."] [index="1 2 3"]
             [since="2004-11-01 00:00:00"] [until="..."]/>
        <result name="B_scatter"/>
      </source>
      <operator id="max_old" type="max" input="src_old"/>
      <operator id="reldiff" type="above" input="max_new max_old"/>
      <operator id="vol" type="eval" input="src"
                expression="S_chunk * N_proc" [result="volume"]/>
      <operator id="s" type="scale" input="x" factor="8"/>
      <operator id="o" type="offset" input="x" summand="-1"/>
      <combiner id="c" input="a b" [keep_duplicate_parameters="yes"]/>
      <output id="plot" input="reldiff" format="gnuplot">
        <option name="style">bars</option>
        <option name="x">access</option>
      </output>
    </query>

``input`` is a space-separated list of producing element ids; nested
``<input>`` children are accepted as an alternative.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any

from ..core.datatypes import parse_timestamp
from ..core.errors import XMLFormatError
from ..query.combiner import Combiner
from ..query.engine import Query
from ..query.operators import Operator
from ..query.outputs import Output
from ..query.source import ParameterSpec, RunFilter, Source
from .schema import (ANY, AT_LEAST_ONE, OPTIONAL, ElementSpec, bool_attr,
                     parse_document)

__all__ = ["parse_query_xml", "QUERY_SPEC"]

_PARAMETER = (ElementSpec("parameter")
              .attr("name", True).attr("value").attr("op").attr("show"))
_RUN = (ElementSpec("run")
        .attr("min_index").attr("max_index").attr("index")
        .attr("since").attr("until"))
_RESULT = ElementSpec("result").attr("name", True)
_INPUT = ElementSpec("input", text=True)
_OPTION = ElementSpec("option", text=True).attr("name", True)

QUERY_SPEC = (
    ElementSpec("query").attr("name")
    .child("source",
           (ElementSpec("source").attr("id", True)
            .attr("include_run_index")
            .child("parameter", _PARAMETER, ANY)
            .child("run", _RUN, OPTIONAL)
            .child("result", _RESULT, AT_LEAST_ONE)), AT_LEAST_ONE)
    .child("operator",
           (ElementSpec("operator").attr("id", True).attr("type", True)
            .attr("input").attr("expression").attr("factor")
            .attr("summand").attr("result").attr("use_sql")
            .attr("mode").attr("unit")
            .child("input", _INPUT, ANY)), ANY)
    .child("combiner",
           (ElementSpec("combiner").attr("id", True).attr("input")
            .attr("keep_duplicate_parameters")
            .child("input", _INPUT, ANY)), ANY)
    .child("output",
           (ElementSpec("output").attr("id", True).attr("input")
            .attr("format")
            .child("input", _INPUT, ANY)
            .child("option", _OPTION, ANY)), ANY))


def _inputs_of(element: ET.Element) -> list[str]:
    inputs: list[str] = []
    attr = element.get("input")
    if attr:
        inputs.extend(attr.split())
    for child in element.findall("input"):
        text = (child.text or "").strip()
        if text:
            inputs.extend(text.split())
    return inputs


def _smart_value(raw: str) -> Any:
    """Guess the Python type of a filter value from its spelling; the
    source element coerces it to the variable's datatype when it binds
    the value (``Source._filter_sql``)."""
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _parse_source(element: ET.Element) -> Source:
    parameters = []
    for p in element.findall("parameter"):
        op, value = p.get("op", "=="), p.get("value")
        if value is not None and op == "in":
            # comma-separated alternatives, each typed on its own, as
            # <where op="in"> of the input description takes them
            value = ([_smart_value(v) for v in value.split(",")]
                     if value.strip() else [])
        elif value is not None:
            value = _smart_value(value)
        parameters.append(ParameterSpec(
            name=p.get("name"), value=value, op=op,
            show=bool_attr(p, "show", True)))
    results = [r.get("name") for r in element.findall("result")]
    run_el = element.find("run")
    runs = None
    if run_el is not None:
        index_attr = run_el.get("index")
        runs = RunFilter(
            indices=[int(i) for i in index_attr.split()]
            if index_attr else None,
            min_index=int(run_el.get("min_index"))
            if run_el.get("min_index") else None,
            max_index=int(run_el.get("max_index"))
            if run_el.get("max_index") else None,
            since=parse_timestamp(run_el.get("since"))
            if run_el.get("since") else None,
            until=parse_timestamp(run_el.get("until"))
            if run_el.get("until") else None)
    return Source(element.get("id"), parameters=parameters,
                  results=results, runs=runs,
                  include_run_index=bool_attr(
                      element, "include_run_index"))


def _parse_operator(element: ET.Element) -> Operator:
    return Operator(
        element.get("id"), element.get("type"), _inputs_of(element),
        expression=element.get("expression"),
        factor=float(element.get("factor", 1.0)),
        summand=float(element.get("summand", 0.0)),
        mode=element.get("mode", "max"),
        unit=element.get("unit"),
        result_name=element.get("result"),
        use_sql=bool_attr(element, "use_sql", True))


def _parse_combiner(element: ET.Element) -> Combiner:
    return Combiner(
        element.get("id"), _inputs_of(element),
        keep_duplicate_parameters=bool_attr(
            element, "keep_duplicate_parameters"))


def _parse_output(element: ET.Element) -> Output:
    options: dict[str, Any] = {}
    for option in element.findall("option"):
        options[option.get("name")] = _smart_value(option.text or "")
    return Output(element.get("id"), _inputs_of(element),
                  format=element.get("format", "ascii"),
                  options=options)


def parse_query_xml(source: str) -> Query:
    """Parse a query specification from XML text or a file path."""
    root = parse_document(source, QUERY_SPEC)
    elements = []
    seen: set[str] = set()
    for element in root:
        eid = element.get("id")
        if eid in seen:
            raise XMLFormatError(f"duplicate element id {eid!r}",
                                 element=element.tag)
        seen.add(eid)
        if element.tag == "source":
            elements.append(_parse_source(element))
        elif element.tag == "operator":
            elements.append(_parse_operator(element))
        elif element.tag == "combiner":
            elements.append(_parse_combiner(element))
        elif element.tag == "output":
            elements.append(_parse_output(element))
    return Query(elements, name=root.get("name", "query"))
