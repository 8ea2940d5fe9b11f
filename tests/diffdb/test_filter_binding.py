"""Source filter values are bound in their parameter's type.

A query XML spells every filter value as text and ``_smart_value``
guesses a Python type from the spelling, so ``value="2"`` arrives as
the int ``2`` and ``value="false"`` as a string.  Bound as given, the
two backends disagreed: SQLite's TEXT affinity turned the ``2`` back
into ``'2'`` while the columnar engine compared an int with text, and
``"false"`` became a truthy BOOLEAN on both.
"""

import pytest

from repro import Experiment, Parameter, Result, RunData
from repro.core import DataType, Occurrence
from repro.core.errors import QueryError
from repro.query import (Operator, Output, ParameterSpec, Query, RunFilter,
                         Source)
from repro.testing import make_server, query_outcome, run_differential
from repro.xmlio import parse_query_xml, query_to_xml
from tests.conftest import fill_simple, make_simple_experiment

pytestmark = pytest.mark.diffdb


def _query(parameter: str, value: str, results: str = "bw"):
    return parse_query_xml(f"""\
<query name="binding">
  <source id="s" include_run_index="yes">
    <parameter name="{parameter}" value="{value}"/>
    <result name="{results}"/>
  </source>
  <output id="o" input="s" format="csv"/>
</query>
""")


def test_numeric_spelled_filter_on_string_parameter():
    def scenario(server, _backend):
        exp = fill_simple(make_simple_experiment(server),
                          techniques=("1", "2"))
        return query_outcome(exp, _query("technique", "2"))

    outcomes = run_differential(scenario)
    rows = outcomes["memory"]["vectors"]["s"]["rows"]
    # the three technique-"2" runs, six data sets each
    assert len(rows) == 18
    assert {row[1] for row in rows} == {"2"}


def _flagged(server):
    exp = Experiment.create(server, "flags", [
        Parameter("flag", datatype=DataType.BOOLEAN),
        Result("bw", datatype=DataType.FLOAT,
               occurrence=Occurrence.MULTIPLE),
    ])
    for flag in (True, False, True):
        exp.store_run(RunData(once={"flag": flag},
                              datasets=[{"bw": 1.0}, {"bw": 2.0}]))
    return exp


@pytest.mark.parametrize("spelling,flag", [("false", False),
                                           ("true", True)])
def test_boolean_filter_selects_runs_stored_with_that_value(spelling,
                                                             flag):
    def scenario(server, _backend):
        exp = _flagged(server)
        stored = [index for index, run_flag
                  in zip(exp.run_indices(), (True, False, True))
                  if run_flag is flag]
        outcome = query_outcome(exp, _query("flag", spelling))
        return stored, outcome

    outcomes = run_differential(scenario)
    stored, outcome = outcomes["memory"]
    rows = outcome["vectors"]["s"]["rows"]
    assert sorted({row[0] for row in rows}) == stored
    assert len(rows) == 2 * len(stored)


@pytest.mark.parametrize("backend", ["sqlite", "memory"])
def test_uncoercible_filter_value_names_source_and_parameter(backend):
    exp = _flagged(make_server(backend))
    with pytest.raises(QueryError, match=r"'s'.*'flag'"):
        _query("flag", "maybe").execute(exp)


#: alternatives of ``op="in"`` are comma-separated, each typed alone
IN_QUERY = """\
<query name="alternatives">
  <source id="s" include_run_index="yes">
    <parameter name="technique" value="old, new" op="in"/>
    <parameter name="S_chunk" value="32,1024" op="in"/>
    <parameter name="access"/>
    <result name="bw"/>
  </source>
  <output id="o" input="s" format="csv"/>
</query>
"""


def test_in_filters_parse_execute_and_round_trip():
    """A text and an integer ``in`` filter select their alternatives on
    both backends, and the written query parses back to the same
    filters."""
    query = parse_query_xml(IN_QUERY)
    values = {s.name: s.value for s in query.elements["s"].parameters}
    assert values == {"technique": ["old", "new"], "S_chunk": [32, 1024],
                      "access": None}
    written = query_to_xml(query)
    assert 'value="old,new"' in written and 'value="32,1024"' in written
    assert (parse_query_xml(written).elements["s"].spec()
            == query.elements["s"].spec())

    def scenario(server, _backend):
        exp = fill_simple(make_simple_experiment(server),
                          techniques=("old", "new", "mid"))
        return [query_outcome(exp, parse_query_xml(xml))
                for xml in (IN_QUERY, written)]

    parsed, rewritten = run_differential(scenario)["memory"]
    assert rewritten == parsed
    rows = parsed["vectors"]["s"]["rows"]
    # runs 1-3 old, 4-6 new (7-9 mid are out), two chunks, two accesses
    assert sorted({row[0] for row in rows}) == [1, 2, 3, 4, 5, 6]
    assert {row[2] for row in rows} == {32, 1024}
    assert len(rows) == 6 * 2 * 2


def test_in_filter_rejects_a_string_value():
    with pytest.raises(QueryError, match="'technique'.*sequence"):
        ParameterSpec("technique", "old new", op="in")


#: the ways to ask for an empty ``IN`` list: no run index (also
#: ``<run index=" "/>``), and no alternative of a run-level or a
#: data-set parameter
EMPTY_IN = {
    "run_index": {"runs": RunFilter(indices=[])},
    "once_parameter": {"parameters": [
        ParameterSpec("technique", [], op="in")]},
    "dataset_parameter": {"parameters": [
        ParameterSpec("S_chunk", [], op="in")]},
}


@pytest.mark.parametrize("case", sorted(EMPTY_IN))
def test_empty_in_list_selects_nothing(case):
    def query():
        return Query([
            Source("s", results=["bw"], include_run_index=True,
                   **EMPTY_IN[case]),
            Operator("m", "avg", ["s"]),
            Output("o", ["m"], format="csv"),
        ], name="empty_in")

    def scenario(server, backend):
        exp = fill_simple(make_simple_experiment(server))
        outcomes = [query_outcome(exp, query(), pushdown=pushdown)
                    for pushdown in (False, True)]
        unfused, fused = outcomes
        assert unfused["vectors"]["s"]["rows"] == [], backend
        assert unfused["vectors"]["m"] == fused["vectors"]["m"], backend
        assert fused["vectors"]["m"]["rows"] == [], backend
        return outcomes

    run_differential(scenario)


def test_blank_run_index_attribute_is_an_empty_list():
    query = parse_query_xml("""\
<query name="blank">
  <source id="s"><run index=" "/><result name="bw"/></source>
  <output id="o" input="s" format="csv"/>
</query>
""")
    assert list(query.elements["s"].runs.indices) == []
