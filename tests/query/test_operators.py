"""Unit tests for the operator element: families, the three automatic
modes, SQL vs Python parity (Section 3.3.2)."""

import math

import pytest

from repro.core import OperatorError, RunData
from repro.query import (Combiner, Operator, Output, ParameterSpec,
                         Query, Source)


def exec_elements(exp, elements, final):
    q = Query(list(elements) + [Output("sink", [final], format="csv")],
              name="t")
    return q.execute(exp, keep_temp_tables=True).vectors[final]


def src(name="s", parameters=("S_chunk", "access"), results=("bw",),
        filters=()):
    specs = [ParameterSpec(n, v, show=False) for n, v in filters]
    specs += [ParameterSpec(p) for p in parameters]
    return Source(name, parameters=specs, results=list(results))


class TestConstruction:
    def test_unknown_operator_rejected(self):
        with pytest.raises(OperatorError, match="unknown operator"):
            Operator("x", "frobnicate", ["a"])

    def test_eval_needs_expression(self):
        with pytest.raises(OperatorError, match="expression"):
            Operator("x", "eval", ["a"])

    def test_eval_result_name_cannot_use_ordinal_prefix(self):
        with pytest.raises(OperatorError, match="reserved pb_ord__"):
            Operator("x", "eval", ["a"], expression="bw * 2",
                     result_name="pb_ord__0")

    def test_statistical_needs_exactly_one_input(self,
                                                 filled_experiment):
        from repro.core import QueryError
        with pytest.raises(QueryError, match="exactly 1"):
            exec_elements(filled_experiment,
                          [src("a"), src("b"),
                           Operator("m", "avg", ["a", "b"])], "m")

    def test_binary_needs_exactly_two(self, filled_experiment):
        from repro.core import QueryError
        with pytest.raises(QueryError, match="exactly 2"):
            exec_elements(filled_experiment,
                          [src("a"), Operator("d", "diff", ["a"])], "d")


class TestDataSetAggregation:
    """Mode 1: input from a source element -> GROUP BY parameters."""

    def test_avg_groups_by_parameters(self, filled_experiment):
        v = exec_elements(filled_experiment,
                          [src(), Operator("m", "avg", ["s"])], "m")
        # 3 chunks x 2 accesses x 2 techniques collapse over... wait:
        # parameters included are S_chunk and access -> 6 groups
        assert v.n_rows == 6
        row = next(r for r in v.dicts()
                   if r["S_chunk"] == 32 and r["access"] == "write")
        # values 0,1,2 (old) and 2,3,4 (new) -> mean 2.0
        assert row["bw"] == pytest.approx(2.0)

    def test_count(self, filled_experiment):
        v = exec_elements(filled_experiment,
                          [src(), Operator("c", "count", ["s"])], "c")
        assert all(r["bw"] == 6 for r in v.dicts())
        assert v.column("bw").datatype.value == "integer"

    def test_stddev(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(filters=[("technique", "old")]),
             Operator("sd", "stddev", ["s"])], "sd")
        # per group values are rep offsets 0,1,2 -> stdev = 1.0
        assert all(r["bw"] == pytest.approx(1.0) for r in v.dicts())

    def test_variance(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(filters=[("technique", "old")]),
             Operator("va", "variance", ["s"])], "va")
        assert all(r["bw"] == pytest.approx(1.0) for r in v.dicts())

    def test_median(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(filters=[("technique", "old")]),
             Operator("md", "median", ["s"])], "md")
        row = next(r for r in v.dicts()
                   if r["S_chunk"] == 32 and r["access"] == "write")
        assert row["bw"] == 1.0  # median of 0,1,2

    def test_min_max_sum_prod(self, filled_experiment):
        for op, expected in (("min", 0.0), ("max", 2.0), ("sum", 3.0),
                             ("prod", 0.0)):
            v = exec_elements(
                filled_experiment,
                [src(filters=[("technique", "old")]),
                 Operator("o", op, ["s"])], "o")
            row = next(r for r in v.dicts()
                       if r["S_chunk"] == 32 and r["access"] == "write")
            assert row["bw"] == pytest.approx(expected), op

    def test_aggregation_metadata(self, filled_experiment):
        v = exec_elements(filled_experiment,
                          [src(), Operator("m", "avg", ["s"])], "m")
        assert v.column("bw").synopsis == "avg of bandwidth"
        assert v.column("bw").unit.symbol == "MB/s"

    def test_no_numeric_results_rejected(self, filled_experiment):
        with pytest.raises(OperatorError, match="no numeric"):
            exec_elements(
                filled_experiment,
                [Source("s", parameters=[ParameterSpec("S_chunk")],
                        results=["access"]),
                 Operator("m", "avg", ["s"])], "m")


class TestSqlPythonParity:
    """The use_sql=False reference path must agree with the SQL path."""

    @pytest.mark.parametrize("op", ["avg", "stddev", "variance",
                                    "count", "median", "min", "max",
                                    "sum", "prod"])
    def test_aggregation_parity(self, filled_experiment, op):
        sql = exec_elements(
            filled_experiment,
            [src(), Operator("o", op, ["s"], use_sql=True)], "o")
        py = exec_elements(
            filled_experiment,
            [src(), Operator("o", op, ["s"], use_sql=False)], "o")
        a = sorted(map(tuple, sql.rows()))
        b = sorted(map(tuple, py.rows()))
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra[:2] == rb[:2]
            assert ra[2] == pytest.approx(rb[2])


class TestFullReduction:
    """Mode 2: single non-source input -> one row."""

    def test_max_of_aggregated(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(), Operator("m", "avg", ["s"]),
             Operator("top", "max", ["m"])], "top")
        assert v.n_rows == 1
        # highest group mean: chunk rank 2 (20) + read 5 + mean(tech) 1
        # + mean(rep) 1 = 27
        assert v.rows()[0][0] == pytest.approx(27.0)
        assert v.parameters == []

    def test_count_full(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(), Operator("m", "avg", ["s"]),
             Operator("n", "count", ["m"])], "n")
        assert v.rows()[0][0] == 6

    def test_python_path(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(), Operator("m", "avg", ["s"]),
             Operator("top", "max", ["m"], use_sql=False)], "top")
        assert v.rows()[0][0] == pytest.approx(27.0)


class TestElementwiseReduction:
    """Mode 3: several inputs -> element-wise combination."""

    def test_max_across_branches(self, filled_experiment):
        old = [src("so", filters=[("technique", "old")]),
               Operator("ao", "avg", ["so"])]
        new = [src("sn", filters=[("technique", "new")]),
               Operator("an", "avg", ["sn"])]
        v = exec_elements(filled_experiment,
                          old + new + [
                              Operator("mx", "max", ["ao", "an"])],
                          "mx")
        assert v.n_rows == 6
        row = next(r for r in v.dicts()
                   if r["S_chunk"] == 32 and r["access"] == "write")
        # old mean 1.0, new mean 3.0 -> max 3.0
        assert row["bw"] == pytest.approx(3.0)

    def test_sum_across_three(self, filled_experiment):
        branches = []
        names = []
        for i, technique in enumerate(("old", "new", "old")):
            s = src(f"s{i}", filters=[("technique", technique)])
            a = Operator(f"a{i}", "avg", [f"s{i}"])
            branches += [s, a]
            names.append(f"a{i}")
        v = exec_elements(filled_experiment,
                          branches + [Operator("t", "sum", names)], "t")
        row = next(r for r in v.dicts()
                   if r["S_chunk"] == 32 and r["access"] == "write")
        assert row["bw"] == pytest.approx(1.0 + 3.0 + 1.0)


class TestLinearOperators:
    def test_scale(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(filters=[("technique", "old")]),
             Operator("m", "avg", ["s"]),
             Operator("x8", "scale", ["m"], factor=8.0)], "x8")
        row = next(r for r in v.dicts()
                   if r["S_chunk"] == 32 and r["access"] == "write")
        assert row["bw"] == pytest.approx(8.0)

    def test_offset(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(filters=[("technique", "old")]),
             Operator("m", "avg", ["s"]),
             Operator("o", "offset", ["m"], summand=-1.0)], "o")
        row = next(r for r in v.dicts()
                   if r["S_chunk"] == 32 and r["access"] == "write")
        assert row["bw"] == pytest.approx(0.0)


class TestEval:
    def test_expression_over_results(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(filters=[("technique", "old")]),
             Operator("m", "avg", ["s"]),
             Operator("e", "eval", ["m"], expression="log10(bw + 1)",
                      result_name="logbw")], "e")
        row = next(r for r in v.dicts()
                   if r["S_chunk"] == 32 and r["access"] == "write")
        assert row["logbw"] == pytest.approx(math.log10(2.0))

    def test_expression_uses_parameters(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            [src(filters=[("technique", "old")]),
             Operator("m", "avg", ["s"]),
             Operator("e", "eval", ["m"], expression="bw / S_chunk",
                      result_name="per_byte")], "e")
        row = next(r for r in v.dicts()
                   if r["S_chunk"] == 1024 and r["access"] == "write")
        assert row["per_byte"] == pytest.approx(11.0 / 1024)

    def test_expression_across_two_vectors(self, filled_experiment):
        old = [src("so", filters=[("technique", "old")]),
               Operator("ao", "avg", ["so"])]
        new = [src("sn", filters=[("technique", "new")]),
               Operator("an", "avg", ["sn"])]
        combined = Combiner("c", ["ao", "an"])
        v = exec_elements(
            filled_experiment,
            old + new + [combined,
                         # the combiner keeps the left vector's column
                         # name and renames the right duplicate
                         Operator("e", "eval", ["c"],
                                  expression="bw_an - bw",
                                  result_name="gain")], "e")
        assert all(r["gain"] == pytest.approx(2.0) for r in v.dicts())

    def test_unknown_column_rejected(self, filled_experiment):
        with pytest.raises(OperatorError, match="unknown"):
            exec_elements(
                filled_experiment,
                [src(), Operator("e", "eval", ["s"],
                                 expression="nope * 2")], "e")


class TestTwoVectorRelations:
    def setup_branches(self):
        old = [src("so", filters=[("technique", "old")]),
               Operator("ao", "avg", ["so"])]
        new = [src("sn", filters=[("technique", "new")]),
               Operator("an", "avg", ["sn"])]
        return old + new

    @pytest.mark.parametrize("op,expected", [
        ("diff", 2.0),             # new - old = 2
        ("div", 3.0),              # 3 / 1
        ("percentof", 300.0),      # 100 * 3/1
        ("above", 200.0),          # 100 * (3-1)/1
        ("below", -200.0),         # 100 * (1-3)/1
    ])
    def test_relations(self, filled_experiment, op, expected):
        v = exec_elements(
            filled_experiment,
            self.setup_branches() + [Operator("r", op, ["an", "ao"])],
            "r")
        row = next(r for r in v.dicts()
                   if r["S_chunk"] == 32 and r["access"] == "write")
        assert row["bw"] == pytest.approx(expected)

    def test_join_on_parameters_not_position(self, filled_experiment):
        # shuffle one branch by filtering differently ordered chunks:
        # the join must match on (S_chunk, access) regardless
        v = exec_elements(
            filled_experiment,
            self.setup_branches() + [
                Operator("r", "diff", ["an", "ao"])], "r")
        assert all(r["bw"] == pytest.approx(2.0) for r in v.dicts())

    def test_percent_unit_attached(self, filled_experiment):
        v = exec_elements(
            filled_experiment,
            self.setup_branches() + [
                Operator("r", "above", ["an", "ao"])], "r")
        assert v.column("bw").unit.symbol == "percent"


class TestMultiInputLinear:
    def test_scale_concatenates_identical_layouts(self,
                                                  filled_experiment):
        """Arithmetic operators accept several inputs (paper: 'can be
        applied to any number of input vectors'); with identical
        layouts the transformed vectors are concatenated."""
        old = [src("so", filters=[("technique", "old")]),
               Operator("ao", "avg", ["so"])]
        new = [src("sn", filters=[("technique", "new")]),
               Operator("an", "avg", ["sn"])]
        v = exec_elements(
            filled_experiment,
            old + new + [Operator("x2", "scale", ["ao", "an"],
                                  factor=2.0)], "x2")
        assert v.n_rows == 12  # 6 groups from each branch

    def test_scale_mismatched_layouts_rejected(self,
                                               filled_experiment):
        from repro.core import QueryError
        a = [Source("sa", parameters=[ParameterSpec("S_chunk")],
                    results=["bw"]),
             Operator("ma", "avg", ["sa"])]
        b = [Source("sb", parameters=[ParameterSpec("access")],
                    results=["bw"]),
             Operator("mb", "avg", ["sb"])]
        with pytest.raises(QueryError, match="different columns"):
            exec_elements(filled_experiment,
                          a + b + [Operator("x", "scale",
                                            ["ma", "mb"])], "x")
