"""Shipped control files of the regression sentinel.

Baselines are **data**: every captured baseline is a set of runs in a
dedicated experiment (:data:`EXPERIMENT_NAME`), one run per recorded
sample trace, one data set per query-element span — built from the
span schema of :mod:`repro.workloads.obsmeta`, extended with the
``bytes`` counter and the baseline bookkeeping once-parameters
(baseline name, workload, sample index, capture timestamp).  Because
baselines live in a regular experiment, every existing facility
applies: ``perfbase runs -e perfbase_sentinel``, declarative queries,
``perfbase fsck``, dumps.
"""

from __future__ import annotations

from ..workloads.obsmeta import span_location_xml, span_variables_xml

__all__ = ["EXPERIMENT_NAME", "CHECK_LABEL", "experiment_xml",
           "input_xml", "element_trend_query_xml"]

#: the baselines experiment: one run per captured sample trace
EXPERIMENT_NAME = "perfbase_sentinel"
#: reserved baseline label under which `perfbase check` imports the
#: fresh sample traces (replaced on every check, never listed)
CHECK_LABEL = "@check"
#: span counters a baseline records (the meta-experiment keeps rows only)
_COUNTS = ("rows", "bytes")


def experiment_xml() -> str:
    """Experiment definition for stored baseline (and check) traces."""
    return f"""\
<experiment>
  <name>{EXPERIMENT_NAME}</name>
  <info>
    <performed_by>
      <name>perfbase</name>
      <organization>perfbase regression sentinel</organization>
    </performed_by>
    <project>perfbase meta-experiment</project>
    <synopsis>Named baseline traces of the sentinel workload suite</synopsis>
    <description>Each run is one recorded sample trace of a sentinel
      workload; each data set is one query-element span.  The baseline
      once-parameter names the stored profile; `perfbase check`
      compares fresh samples against it statistically.
    </description>
  </info>
  <parameter occurrence="once">
    <name>baseline</name>
    <synopsis>name of the stored baseline this run belongs to</synopsis>
    <datatype>string</datatype>
  </parameter>
  <parameter occurrence="once">
    <name>workload</name>
    <synopsis>sentinel workload that produced the trace</synopsis>
    <datatype>string</datatype>
  </parameter>
  <parameter occurrence="once">
    <name>sample</name>
    <synopsis>sample index within the capture</synopsis>
    <datatype>integer</datatype>
  </parameter>
  <parameter occurrence="once">
    <name>captured</name>
    <synopsis>ISO timestamp of the capture</synopsis>
    <datatype>string</datatype>
  </parameter>
{span_variables_xml(_COUNTS)}</experiment>
"""


def input_xml() -> str:
    """Input description for one sample trace (JSON-lines spans).

    The baseline bookkeeping once-values (baseline, workload, sample,
    captured) are not in the trace; the store sets them per import via
    ``InputDescription.set_fixed_value`` — the command-line fixed-value
    mechanism of Section 3.2.
    """
    return f"""\
<input name="{EXPERIMENT_NAME}">
{span_location_xml(_COUNTS)}</input>
"""


def element_trend_query_xml(baseline: str | None = None) -> str:
    """Per-element mean wall/CPU time over the stored samples —
    the hotspot list of a baseline (or of everything when ``baseline``
    is ``None``)."""
    where = ""
    if baseline is not None:
        where = (f'\n    <parameter name="baseline" '
                 f'value="{baseline}" show="no"/>')
    return f"""\
<query name="sentinel_element_trend">
  <source id="src">{where}
    <parameter name="element"/>
    <parameter name="kind"/>
    <result name="wall_s"/>
    <result name="cpu_s"/>
  </source>
  <operator id="mean" type="avg" input="src"/>
  <output id="table" input="mean" format="ascii">
    <option name="title">per-element mean time</option>
    <option name="sort_by">element</option>
    <option name="precision">6</option>
  </output>
</query>
"""
