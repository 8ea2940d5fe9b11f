"""The perfbase meta-experiment: perfbase measuring perfbase.

The paper justified the parallel query executor with profiling numbers
("about 10% of this period is used to retrieve the data from the
database", Section 4.3).  This module closes the loop: the JSON-lines
execution traces that :class:`~repro.obs.sinks.JsonLinesSink` records
are themselves benchmark output in the paper's sense, so perfbase can
manage them like any other experiment — import via an input
description, analysis via query specifications.

Shipped control files (same structure as
:mod:`~repro.workloads.beffio_assets`):

* :func:`experiment_xml` — the experiment definition: one run per
  trace file, one data set per query-element span;
* :func:`input_xml` — the input description: a ``json_location`` pulls
  the element spans out of the trace, ``derived_parameter`` elements
  compute wall/CPU seconds from the raw clock readings — exactly the
  arithmetic-relation facility of Section 3.2;
* :func:`source_fraction_query_xml` — reproduces the Section 4.3
  number: summed source-element time divided by summed element time;
* :func:`hotspot_query_xml` — per-element total wall/CPU time, the
  query-plan hotspot list.

:func:`span_variables_xml` and :func:`span_location_xml` hold the
per-span schema both this experiment and the regression sentinel's
baselines experiment (:mod:`repro.sentinel.assets`) are built from.
"""

from __future__ import annotations

from typing import Sequence

from ..obs.spans import ELEMENT_KIND_ORDER

__all__ = ["EXPERIMENT_NAME", "experiment_xml", "input_xml",
           "source_fraction_query_xml", "hotspot_query_xml",
           "span_variables_xml", "span_location_xml"]

EXPERIMENT_NAME = "perfbase_meta"

#: raw clock readings of a span: (variable, trace key, synopsis)
_CLOCKS = (("t_start", "start", "monotonic clock at span start"),
           ("t_end", "end", "monotonic clock at span end"),
           ("cpu_t0", "cpu_start", "process CPU clock at span start"),
           ("cpu_t1", "cpu_end", "process CPU clock at span end"))
#: span counter attributes a schema may record, with their synopses
_COUNTS = {"rows": "rows the element produced",
           "bytes": "bytes the element moved"}
_SECONDS = "    <unit> <base_unit>s</base_unit> </unit>\n"


def _variable(tag: str, name: str, synopsis: str, datatype: str,
              extra: str = "") -> str:
    return (f"  <{tag}>\n    <name>{name}</name>\n"
            f"    <synopsis>{synopsis}</synopsis>\n"
            f"    <datatype>{datatype}</datatype>\n{extra}  </{tag}>\n")


def span_variables_xml(counts: Sequence[str] = ("rows",)) -> str:
    """Parameters and results of one query-element span: element,
    kind, raw clock readings, the ``counts`` attributes and the derived
    wall/CPU durations."""
    valid = " ".join(f"<valid>{kind}</valid>"
                     for kind in ELEMENT_KIND_ORDER)
    return "".join([
        _variable("parameter", "element",
                  "query element the span measured", "string"),
        _variable("parameter", "kind", "element kind of the span",
                  "string", f"    {valid}\n"),
        *(_variable("parameter", name, synopsis, "float", _SECONDS)
          for name, _, synopsis in _CLOCKS),
        *(_variable("result", name, _COUNTS[name], "integer")
          for name in counts),
        _variable("result", "wall_s", "wall time of the span", "float",
                  _SECONDS),
        _variable("result", "cpu_s", "CPU time of the span", "float",
                  _SECONDS)])


def span_location_xml(counts: Sequence[str] = ("rows",)) -> str:
    """The ``json_location`` that reads the element spans of a trace
    into :func:`span_variables_xml`'s variables, plus the two
    ``derived_parameter`` elements computing the durations."""
    keys = [("element", "name"), ("kind", "kind"),
            *((var, key) for var, key, _ in _CLOCKS)]
    fields = "".join(f'    <field variable="{var}" key="{key}"/>\n'
                     for var, key in keys)
    fields += "".join(
        f'    <field variable="{name}" key="attributes.{name}" '
        f'default="0"/>\n' for name in counts)
    return f"""\
  <json_location>
    <where key="type" value="span"/>
    <where key="kind" value="{','.join(ELEMENT_KIND_ORDER)}" op="in"/>
{fields}  </json_location>
  <derived_parameter parameter="wall_s" expression="t_end - t_start"/>
  <derived_parameter parameter="cpu_s" expression="cpu_t1 - cpu_t0"/>
"""


def experiment_xml() -> str:
    """Experiment definition for imported execution traces."""
    return f"""\
<experiment>
  <name>{EXPERIMENT_NAME}</name>
  <info>
    <performed_by>
      <name>perfbase</name>
      <organization>perfbase observability subsystem</organization>
    </performed_by>
    <project>perfbase meta-experiment</project>
    <synopsis>Execution traces of perfbase query runs</synopsis>
    <description>Each run is one recorded JSON-lines trace; each data
      set is one query-element span (Section 4.3 profiling made a
      managed experiment).
    </description>
  </info>
  <parameter occurrence="once">
    <name>run_label</name>
    <synopsis>label of the traced command (from the trace filename)</synopsis>
    <datatype>string</datatype>
  </parameter>
{span_variables_xml()}</experiment>
"""


def input_xml() -> str:
    """Input description for JSON-lines trace files.

    The ``json_location`` keeps only finished query-element spans; the
    two ``derived_parameter`` elements turn the raw clock readings into
    the wall/CPU durations the queries aggregate.
    """
    return f"""\
<input name="{EXPERIMENT_NAME}">
  <filename_location parameter="run_label" pattern="^([^.]+)"/>
{span_location_xml()}</input>
"""


def source_fraction_query_xml() -> str:
    """The Section 4.3 ratio as a declarative query: time in source
    elements over time in all elements, computed by perfbase itself
    from an imported trace."""
    return """\
<query name="source_fraction">
  <source id="src_sources">
    <parameter name="kind" value="source" show="no"/>
    <result name="wall_s"/>
  </source>
  <source id="src_elements">
    <result name="wall_s"/>
  </source>
  <operator id="sum_sources" type="sum" input="src_sources"/>
  <operator id="sum_elements" type="sum" input="src_elements"/>
  <operator id="fraction" type="div" input="sum_sources sum_elements"/>
  <output id="table" input="fraction" format="ascii">
    <option name="title">fraction of element time spent in sources</option>
    <option name="precision">6</option>
  </output>
</query>
"""


def hotspot_query_xml() -> str:
    """Per-element total wall/CPU time: the hotspot list of a traced
    query run, grouped by plan element."""
    return """\
<query name="element_hotspots">
  <source id="src">
    <parameter name="element"/>
    <parameter name="kind"/>
    <result name="wall_s"/>
    <result name="cpu_s"/>
  </source>
  <operator id="total" type="sum" input="src"/>
  <output id="table" input="total" format="ascii">
    <option name="title">per-element total time</option>
    <option name="sort_by">element</option>
    <option name="precision">6</option>
  </output>
</query>
"""
