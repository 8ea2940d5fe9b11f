"""Shared builders of the cross-backend differential battery.

Every scenario here is written against the harness contract: take a
fresh server, produce a comparable outcome structure.  The queries
deliberately sweep the whole operator vocabulary so dialect drift in
any SQL the engine emits is caught.
"""

from __future__ import annotations

from datetime import datetime

from repro.query import (Combiner, Operator, Output, ParameterSpec,
                         Query, RunFilter, Source)
from tests.conftest import fill_simple, make_simple_experiment


def build_filled(server, name="simple"):
    return fill_simple(make_simple_experiment(server, name))


def _source(name="s", technique=None, extra=()):
    specs = [ParameterSpec("S_chunk"), ParameterSpec("access")]
    if technique is not None:
        specs.insert(0, ParameterSpec("technique", technique,
                                      show=False))
    specs.extend(extra)
    return Source(name, parameters=specs, results=["bw"])


def _single(op, **kwargs):
    """source -> one operator -> ascii output."""
    return Query([
        _source(),
        Operator("m", op, ["s"], **kwargs),
        Output("table", ["m"], format="ascii"),
    ], name=f"battery_{op}_{kwargs.get('mode', '')}")


def _two_branch(op):
    """Fig.-2 shape: two filtered branches reduced then compared."""
    return Query([
        _source("so", technique="old"),
        Operator("ao", "avg", ["so"]),
        _source("sn", technique="new"),
        Operator("an", "avg", ["sn"]),
        Operator("rel", op, ["an", "ao"]),
        Output("table", ["rel"], format="ascii"),
        Output("csv", ["rel"], format="csv"),
    ], name=f"battery_two_{op}")


def _combined():
    return Query([
        _source("so", technique="old"),
        Operator("ao", "avg", ["so"]),
        _source("sn", technique="new"),
        Operator("an", "avg", ["sn"]),
        Combiner("both", ["ao", "an"]),
        Output("table", ["both"], format="ascii"),
    ], name="battery_combine")


def _filtered_source():
    """Source-level WHERE shapes: equality, IN, LIKE filters."""
    return Query([
        Source("s", parameters=[
            ParameterSpec("technique", "new", show=False),
            ParameterSpec("S_chunk", (32, 1024), op="in"),
            ParameterSpec("access", "re%", op="like"),
        ], results=["bw"]),
        Output("csv", ["s"], format="csv"),
    ], name="battery_filters")


def _once_filtered_source(op, value):
    """Run-level WHERE shapes: one filter on the once-parameter
    ``technique``, evaluated in the run-selection join."""
    return Query([
        Source("s", parameters=[
            ParameterSpec("technique", value, op=op),
            ParameterSpec("S_chunk"),
            ParameterSpec("access"),
        ], results=["bw"]),
        Output("csv", ["s"], format="csv"),
    ], name=f"battery_once_{op}")


def _run_filtered_source():
    """Every RunFilter bound at once: an index list, an index range
    and a creation-time window (wide enough to hold every run)."""
    return Query([
        Source("s", parameters=[ParameterSpec("technique"),
                                ParameterSpec("S_chunk")],
               results=["bw"],
               runs=RunFilter(indices=(1, 2, 3, 5, 6), min_index=2,
                              max_index=5, since=datetime(2000, 1, 1),
                              until=datetime(2999, 1, 1))),
        Output("csv", ["s"], format="csv"),
    ], name="battery_run_filter")


def _eval_chain():
    return Query([
        _source(),
        Operator("m", "avg", ["s"]),
        Operator("e", "eval", ["m"],
                 expression="bw * 2 + S_chunk / 1024"),
        Output("csv", ["e"], format="csv"),
    ], name="battery_eval")


def _norm_chain(mode):
    return Query([
        _source(),
        Operator("m", "avg", ["s"]),
        Operator("n", "norm", ["m"], mode=mode),
        Output("csv", ["n"], format="csv"),
    ], name=f"battery_norm_{mode}")


def _convert_chain():
    return Query([
        _source(),
        Operator("m", "avg", ["s"]),
        Operator("c", "convert", ["m"], unit="KB/s"),
        Output("csv", ["c"], format="csv"),
    ], name="battery_convert")


#: name -> zero-argument Query factory; the full battery every
#: differential test (and the property suite) sweeps
QUERY_BATTERY = {
    "source_only": lambda: Query([
        _source(),
        Output("csv", ["s"], format="csv"),
    ], name="battery_source"),
    "avg": lambda: _single("avg"),
    "stddev": lambda: _single("stddev"),
    "variance": lambda: _single("variance"),
    "median": lambda: _single("median"),
    "count": lambda: _single("count"),
    "min": lambda: _single("min"),
    "max": lambda: _single("max"),
    "sum": lambda: _single("sum"),
    "prod": lambda: _single("prod"),
    "scale": lambda: _single("scale", factor=2.5),
    "offset": lambda: _single("offset", summand=-1.0),
    "filter": lambda: _single("filter", expression="bw > 10"),
    "diff": lambda: _two_branch("diff"),
    "div": lambda: _two_branch("div"),
    "percentof": lambda: _two_branch("percentof"),
    "above": lambda: _two_branch("above"),
    "below": lambda: _two_branch("below"),
    "combine": _combined,
    "source_filters": _filtered_source,
    "once_in": lambda: _once_filtered_source("in", ("new", "other")),
    "once_like": lambda: _once_filtered_source("like", "ne%"),
    "once_ne": lambda: _once_filtered_source("!=", "old"),
    "once_lt": lambda: _once_filtered_source("<", "o"),
    "once_ge": lambda: _once_filtered_source(">=", "old"),
    "run_filter": _run_filtered_source,
    "eval": _eval_chain,
    "norm_max": lambda: _norm_chain("max"),
    "norm_min": lambda: _norm_chain("min"),
    "norm_sum": lambda: _norm_chain("sum"),
    "norm_first": lambda: _norm_chain("first"),
    "convert": _convert_chain,
}
