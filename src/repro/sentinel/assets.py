"""Shipped control files of the regression sentinel.

Baselines are **data**: every captured baseline is a set of runs in a
dedicated experiment (:data:`EXPERIMENT_NAME`), one run per recorded
sample trace, one data set per query-element span — the same
meta-experiment shape as :mod:`repro.workloads.obsmeta`, extended with
the baseline bookkeeping once-parameters (baseline name, workload,
sample index, capture timestamp).  Because baselines live in a regular
experiment, every existing facility applies: ``perfbase runs -e
perfbase_sentinel``, declarative queries, ``perfbase fsck``, dumps.
"""

from __future__ import annotations

__all__ = ["EXPERIMENT_NAME", "CHECK_LABEL", "experiment_xml",
           "input_xml", "element_trend_query_xml"]

#: the baselines experiment: one run per captured sample trace
EXPERIMENT_NAME = "perfbase_sentinel"
#: reserved baseline label under which `perfbase check` imports the
#: fresh sample traces (replaced on every check, never listed)
CHECK_LABEL = "@check"

#: the span kinds that count as query elements (Section 3.3's four)
_ELEMENT_KINDS = "source,operator,combiner,output"


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
  <parameter>
    <name>element</name>
    <synopsis>query element the span measured</synopsis>
    <datatype>string</datatype>
  </parameter>
  <parameter>
    <name>kind</name>
    <synopsis>element kind of the span</synopsis>
    <datatype>string</datatype>
    <valid>source</valid> <valid>operator</valid>
    <valid>combiner</valid> <valid>output</valid>
  </parameter>
  <parameter>
    <name>t_start</name>
    <synopsis>monotonic clock at span start</synopsis>
    <datatype>float</datatype>
    <unit> <base_unit>s</base_unit> </unit>
  </parameter>
  <parameter>
    <name>t_end</name>
    <synopsis>monotonic clock at span end</synopsis>
    <datatype>float</datatype>
    <unit> <base_unit>s</base_unit> </unit>
  </parameter>
  <parameter>
    <name>cpu_t0</name>
    <synopsis>process CPU clock at span start</synopsis>
    <datatype>float</datatype>
    <unit> <base_unit>s</base_unit> </unit>
  </parameter>
  <parameter>
    <name>cpu_t1</name>
    <synopsis>process CPU clock at span end</synopsis>
    <datatype>float</datatype>
    <unit> <base_unit>s</base_unit> </unit>
  </parameter>
  <result>
    <name>rows</name>
    <synopsis>rows the element produced</synopsis>
    <datatype>integer</datatype>
  </result>
  <result>
    <name>bytes</name>
    <synopsis>bytes the element moved</synopsis>
    <datatype>integer</datatype>
  </result>
  <result>
    <name>wall_s</name>
    <synopsis>wall time of the span</synopsis>
    <datatype>float</datatype>
    <unit> <base_unit>s</base_unit> </unit>
  </result>
  <result>
    <name>cpu_s</name>
    <synopsis>CPU time of the span</synopsis>
    <datatype>float</datatype>
    <unit> <base_unit>s</base_unit> </unit>
  </result>
</experiment>
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
  <json_location>
    <where key="type" value="span"/>
    <where key="kind" value="{_ELEMENT_KINDS}" op="in"/>
    <field variable="element" key="name"/>
    <field variable="kind" key="kind"/>
    <field variable="t_start" key="start"/>
    <field variable="t_end" key="end"/>
    <field variable="cpu_t0" key="cpu_start"/>
    <field variable="cpu_t1" key="cpu_end"/>
    <field variable="rows" key="attributes.rows" default="0"/>
    <field variable="bytes" key="attributes.bytes" default="0"/>
  </json_location>
  <derived_parameter parameter="wall_s" expression="t_end - t_start"/>
  <derived_parameter parameter="cpu_s" expression="cpu_t1 - cpu_t0"/>
</input>
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
