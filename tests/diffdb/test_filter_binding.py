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
from repro.testing import make_server, query_outcome, run_differential
from repro.xmlio import parse_query_xml
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
