"""Property-based cross-backend differential testing.

Hypothesis generates random element chains — linear pipelines,
two-branch fan-outs and one source shared by two aggregates that a
combiner joins — over randomised run data, executes them on the
SQLite backend and the in-memory columnar backend (serial and
parallel, cache on and off), and asserts the output vectors and
artifacts are identical, value types included.

Experiments are built once per (backend, data-seed) pair and cached at
module level: function-scoped rebuilds don't mix with shrinking and
would dominate runtime.
"""

import zlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.errors import QueryError
from repro.query import (Combiner, Operator, Output, ParameterSpec,
                         Query, Source)
from repro.testing import (DIFF_BACKENDS, assert_identical, make_server,
                           query_outcome)
from tests.conftest import fill_simple, make_simple_experiment

pytestmark = pytest.mark.diffdb

_EXPERIMENTS = {}


def experiment(backend, data_seed):
    key = (backend, data_seed)
    if key not in _EXPERIMENTS:
        def value(technique, rep, chunk, access):
            word = f"{data_seed}:{technique}:{rep}:{chunk}:{access}"
            return zlib.crc32(word.encode()) % 10_000 / 100.0
        _EXPERIMENTS[key] = fill_simple(
            make_simple_experiment(make_server(backend),
                                   f"props_{data_seed}"),
            value=value)
    return _EXPERIMENTS[key]


# -- chain strategies --------------------------------------------------------

aggregations = st.sampled_from(["avg", "stddev", "median", "min",
                                "max", "sum", "count", "prod"])
two_vector = st.sampled_from(["diff", "div", "percentof", "above",
                              "below"])
post_ops = st.sampled_from([None, "scale", "offset", "norm"])
data_seeds = st.integers(min_value=0, max_value=2)


def _branch(draw, tag, technique):
    parameters = [ParameterSpec("technique", technique, show=False),
                  ParameterSpec("S_chunk")]
    if draw(st.booleans()):
        parameters.append(ParameterSpec("access"))
    elements = [Source(f"s{tag}", parameters=parameters,
                       results=["bw"]),
                Operator(f"a{tag}", draw(aggregations), [f"s{tag}"])]
    return elements, f"a{tag}"


def _append_post(draw, elements, last):
    op = draw(post_ops)
    if op == "scale":
        elements.append(Operator("post", op, [last],
                                 factor=draw(st.sampled_from(
                                     [0.5, 2.0, 10.0]))))
        return "post"
    if op == "offset":
        elements.append(Operator("post", op, [last],
                                 summand=draw(st.sampled_from(
                                     [-1.0, 1.0, 100.0]))))
        return "post"
    if op == "norm":
        elements.append(Operator("post", op, [last],
                                 mode=draw(st.sampled_from(
                                     ["max", "min", "sum", "first"]))))
        return "post"
    return last


@st.composite
def chains(draw):
    """A linear chain, a two-branch fan-out or a shared source (two
    aggregates of one source, combined), plus execution flags."""
    shape = draw(st.sampled_from(["linear", "fanout", "shared"]))
    if shape == "linear":
        elements, last = _branch(draw, "x", draw(
            st.sampled_from(["old", "new"])))
        last = _append_post(draw, elements, last)
    elif shape == "shared":
        elements, first = _branch(draw, "x", draw(
            st.sampled_from(["old", "new"])))
        elements.append(Operator("a2", draw(aggregations), ["sx"]))
        elements.append(Combiner("join", [first, "a2"]))
        last = _append_post(draw, elements, "join")
    else:
        left, lname = _branch(draw, "o", "old")
        right, rname = _branch(draw, "n", "new")
        elements = left + right
        if draw(st.booleans()):
            elements.append(Operator("join", draw(two_vector),
                                     [lname, rname]))
        else:
            elements.append(Combiner("join", [lname, rname]))
        last = _append_post(draw, elements, "join")
    elements.append(Output("out", [last],
                           format=draw(st.sampled_from(
                               ["ascii", "csv"]))))
    return {
        "query": Query(elements, name="generated"),
        "data_seed": draw(data_seeds),
        "cache": draw(st.booleans()),
        "parallel": draw(st.sampled_from([0, 2])),
        "pushdown": draw(st.booleans()),
    }


def outcome_or_error(exp, query, **kw):
    """A query outcome, with a legitimate rejection as first-class data.

    Generated chains can be validly rejected by the engine — e.g.
    ``norm`` by ``max`` over the ``diff`` of two identical branches
    divides by zero, which the engine refuses eagerly.  For the
    differential property that is still a comparable outcome:
    *indistinguishable* means every backend (and the fused vs unfused
    path) must reject the same chain with the same error.
    """
    try:
        return query_outcome(exp, query, **kw)
    except QueryError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


class TestBackendsAreIndistinguishable:
    @settings(max_examples=45, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(chains())
    def test_identical_vectors_and_artifacts(self, chain):
        outcomes = {}
        for backend in DIFF_BACKENDS:
            exp = experiment(backend, chain["data_seed"])
            outcomes[backend] = outcome_or_error(
                exp, chain["query"],
                cache=chain["cache"] or None,
                parallel=chain["parallel"],
                pushdown=chain["pushdown"])
        reference = DIFF_BACKENDS[0]
        for backend in DIFF_BACKENDS[1:]:
            assert_identical(outcomes[reference], outcomes[backend],
                             f"{reference} vs {backend}")
        if chain["pushdown"] and not chain["cache"]:
            # fused must also match the temp-table protocol, vector by
            # vector (absorbed interiors are absent from the fused run)
            unfused = outcome_or_error(
                experiment(reference, chain["data_seed"]),
                chain["query"], parallel=chain["parallel"])
            fused = outcomes[reference]
            if "error" in fused or "error" in unfused:
                assert_identical(unfused, fused, "fused vs unfused")
                return
            assert_identical(unfused["artifacts"], fused["artifacts"],
                             "fused vs unfused artifacts")
            for name, snapshot in fused["vectors"].items():
                assert_identical(unfused["vectors"][name], snapshot,
                                 f"fused vs unfused vector[{name!r}]")
