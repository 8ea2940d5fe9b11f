"""Property-based tests (hypothesis) on core data structures and
invariants: datatype round-trips, unit conversion algebra, expression
evaluation, store round-trips and SQL/Python operator parity."""

import keyword
import math
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (DataType, Parameter, Result, RunData, Unit,
                        VariableSet, parse_content, format_content)
from repro.core.units import SCALINGS, BaseUnit
from repro.db import (ExperimentStore, SQLiteDatabase,
                      variable_from_json, variable_to_json)
from repro.expr import Expression, evaluate

# -- strategies ---------------------------------------------------------------

# a variable name is no Python keyword (Variable rejects those) and no
# expression-constant name
identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True
                            ).filter(lambda s: not keyword.iskeyword(s)
                                     and s not in ("e", "pi", "inf"))
safe_floats = st.floats(allow_nan=False, allow_infinity=False,
                        min_value=-1e12, max_value=1e12)
safe_ints = st.integers(min_value=-2 ** 53, max_value=2 ** 53)
scalings = st.sampled_from(sorted(SCALINGS))
info_units = st.sampled_from(["bit", "byte", "B"])


class TestDatatypeRoundTrips:
    @given(safe_ints)
    def test_integer_roundtrip(self, n):
        text = format_content(n, DataType.INTEGER)
        assert parse_content(text, DataType.INTEGER) == n

    @given(safe_floats)
    def test_float_roundtrip(self, x):
        text = format_content(x, DataType.FLOAT)
        assert parse_content(text, DataType.FLOAT) == pytest.approx(
            x, rel=1e-15, abs=1e-300)

    @given(st.booleans())
    def test_boolean_roundtrip(self, b):
        text = format_content(b, DataType.BOOLEAN)
        assert parse_content(text, DataType.BOOLEAN) is b

    @given(st.datetimes(min_value=__import__("datetime").datetime(
        1971, 1, 1), max_value=__import__("datetime").datetime(
        2100, 1, 1)))
    def test_timestamp_roundtrip_to_second(self, ts):
        ts = ts.replace(microsecond=0)
        text = format_content(ts, DataType.TIMESTAMP)
        assert parse_content(text, DataType.TIMESTAMP) == ts

    @given(st.text(alphabet=string.printable, max_size=50))
    def test_string_roundtrip_modulo_strip(self, s):
        out = parse_content(s, DataType.STRING)
        assert out == s.strip()


class TestUnitAlgebra:
    @given(info_units, scalings, info_units, scalings)
    def test_conversion_factors_are_inverse(self, n1, s1, n2, s2):
        a = Unit((BaseUnit(n1, s1),))
        b = Unit((BaseUnit(n2, s2),))
        assert a.conversion_factor(b) * b.conversion_factor(a) == \
            pytest.approx(1.0)

    @given(info_units, scalings, st.floats(min_value=1e-6,
                                           max_value=1e6))
    def test_convert_roundtrip(self, name, scaling, value):
        a = Unit((BaseUnit(name, scaling),))
        b = Unit((BaseUnit("byte"),))
        assert b.convert(a.convert(value, b), a) == pytest.approx(
            value, rel=1e-12)

    @given(info_units, scalings)
    def test_self_conversion_identity(self, name, scaling):
        u = Unit((BaseUnit(name, scaling),))
        assert u.conversion_factor(u) == pytest.approx(1.0)

    @given(info_units, scalings, scalings)
    def test_division_is_dimensionless(self, name, s1, s2):
        u = Unit((BaseUnit(name, s1),)) / Unit((BaseUnit(name, s2),))
        assert u.dimension == {}


class TestExpressionProperties:
    @given(safe_floats, safe_floats)
    def test_addition_commutes(self, a, b):
        assert evaluate("x + y", x=a, y=b) == evaluate("y + x",
                                                       x=a, y=b)

    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=-1e6, max_value=1e6))
    def test_matches_python_semantics(self, a, b, c):
        ours = evaluate("a * b + c - a / 2", a=a, b=b, c=c)
        theirs = a * b + c - a / 2
        assert ours == pytest.approx(theirs, rel=1e-12, abs=1e-9)

    @given(identifiers, identifiers)
    def test_variables_detected(self, x, y):
        expr = Expression(f"{x} + {y} * 2")
        assert expr.variables == {x, y}

    @given(st.floats(min_value=0.001, max_value=1e9))
    def test_log_exp_inverse(self, x):
        assert evaluate("exp(log(v))", v=x) == pytest.approx(
            x, rel=1e-9)

    @given(st.integers(min_value=0, max_value=12),
           st.integers(min_value=0, max_value=8))
    def test_power_matches_python(self, base, exp):
        assert evaluate(f"{base} ** {exp}") == base ** exp


class TestVariableJsonRoundTrip:
    @given(identifiers,
           st.sampled_from([d.value for d in DataType]),
           st.sampled_from(["once", "multiple"]),
           st.text(max_size=30).filter(lambda s: "\x00" not in s))
    def test_roundtrip(self, name, datatype, occurrence, synopsis):
        cls = Parameter
        var = cls(name, datatype=datatype, occurrence=occurrence,
                  synopsis=synopsis)
        assert variable_from_json(variable_to_json(var)) == var


class TestStoreRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(safe_ints, safe_floats), max_size=20))
    def test_datasets_roundtrip(self, pairs):
        store = ExperimentStore(SQLiteDatabase())
        store.initialise("prop")
        variables = VariableSet([
            Parameter("size", datatype="integer",
                      occurrence="multiple"),
            Result("bw", datatype="float", occurrence="multiple"),
        ])
        store.save_variables(variables)
        run = RunData(datasets=[{"size": s, "bw": b}
                                for s, b in pairs])
        idx = store.store_run(run, variables)
        back = store.load_datasets(idx)
        assert [(d["size"], d["bw"]) for d in back] == pairs

    @settings(max_examples=20, deadline=None)
    @given(st.dictionaries(
        identifiers,
        st.one_of(safe_ints, st.text(max_size=20).map(str.strip)),
        min_size=1, max_size=5))
    def test_once_content_roundtrip(self, once):
        store = ExperimentStore(SQLiteDatabase())
        store.initialise("prop")
        variables = VariableSet([
            Parameter(k, datatype="integer"
                      if isinstance(v, int) else "string")
            for k, v in once.items()])
        store.save_variables(variables)
        idx = store.store_run(RunData(once=dict(once)), variables)
        back = store.load_once(idx)
        assert back == once


class TestOperatorParityProperty:
    """SQL-side aggregation must match the Python reference for any
    data — the invariant behind the paper's claim that SQL processing
    is a pure optimisation."""

    @settings(max_examples=15, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=1, max_value=3),
                  st.floats(min_value=-1e6, max_value=1e6)),
        min_size=1, max_size=40),
        st.sampled_from(["avg", "min", "max", "sum", "count",
                         "median", "stddev", "variance"]))
    def test_parity(self, pairs, op):
        from repro import Experiment, MemoryServer
        from repro.query import (Operator, Output, ParameterSpec,
                                 Query, Source)
        server = MemoryServer()
        exp = Experiment.create(server, "prop", [
            Parameter("g", datatype="integer", occurrence="multiple"),
            Result("v", datatype="float", occurrence="multiple"),
        ])
        exp.store_run(RunData(datasets=[{"g": g, "v": v}
                                        for g, v in pairs]))

        def run(use_sql):
            q = Query([
                Source("s", parameters=[ParameterSpec("g")],
                       results=["v"]),
                Operator("o", op, ["s"], use_sql=use_sql),
                Output("sink", ["o"], format="csv"),
            ])
            vec = q.execute(exp, keep_temp_tables=True).vectors["o"]
            return sorted(map(tuple, vec.rows()))

        sql_rows, py_rows = run(True), run(False)
        assert len(sql_rows) == len(py_rows)
        for (g1, v1), (g2, v2) in zip(sql_rows, py_rows):
            assert g1 == g2
            if v1 is None or v2 is None:
                assert v1 == v2
            else:
                assert v1 == pytest.approx(v2, rel=1e-9, abs=1e-9)
