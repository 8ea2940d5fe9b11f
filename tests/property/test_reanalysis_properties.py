"""Random re-analysis histories: every cached run equals an uncached run.

Hypothesis draws sequences of actions on the b_eff_io experiment:

* imports of one result file whose (technique, fs) matches one suite
  source (``listbased``/``ufs``), several (``listless``/``ufs``: one
  source of each query) or none (``nfs``);
* ``delete_run`` of any active run;
* ``add_variable`` and ``modify_variable`` (schema changes);
* suite queries: fig8, stddev and a run-level-only source.

At every query step each query runs uncached, then cached on the serial
engine and on a 2-node cluster (in a drawn order, so either executor
meets the cache's extension path first), with pushdown on.  The cached
artefacts and vectors must be byte-identical to the uncached ones, on
SQLite and on the columnar engine, and the uncached outcomes identical
across the two.  The explicit examples pin the histories the extension
rule hinges on: an extension of an extended entry, a deleted run
followed by an import (a full miss) and an import no source matches.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import Experiment
from repro.core import DataType, Occurrence, Result, Unit
from repro.parse import Importer
from repro.query import Output, ParameterSpec, Query, Source
from repro.testing import assert_identical, query_outcome, run_differential
from repro.workloads.beffio import generate_campaign
from repro.workloads.beffio_assets import (experiment_xml, fig8_query_xml,
                                           input_xml, stddev_query_xml)
from repro.xmlio import (parse_experiment_xml, parse_input_xml,
                         parse_query_xml)

pytestmark = [pytest.mark.qcache, pytest.mark.diffdb]


def run_level_query():
    return Query([
        Source("runs", parameters=[
            ParameterSpec("technique", "listless", show=False),
            ParameterSpec("n_procs")],
            results=["b_eff_io"], include_run_index=True),
        Output("csv", ["runs"], format="csv"),
    ], name="run_level")


SUITE = (lambda: parse_query_xml(fig8_query_xml("read", "ufs")),
         lambda: parse_query_xml(stddev_query_xml("listless", "ufs")),
         run_level_query)

imports = st.tuples(st.just("import"),
                    st.sampled_from(["listless", "listbased"]),
                    st.sampled_from(["ufs", "nfs"]),
                    st.sampled_from([4, 8]))
deletes = st.tuples(st.just("delete"), st.integers(0, 31))
schema_changes = st.tuples(st.sampled_from(["add_variable",
                                            "modify_variable"]))
queries = st.tuples(st.just("query"), st.sampled_from(["serial",
                                                       "parallel"]))
histories = st.lists(st.one_of(imports, imports, deletes, schema_changes,
                               queries), min_size=1, max_size=7)

QUERY = ("query", "serial")
LISTLESS_UFS = ("import", "listless", "ufs", 4)


def replay(history):
    """Apply ``history`` (plus a final query step) on each backend."""
    def scenario(server, backend):
        definition = parse_experiment_xml(experiment_xml())
        exp = Experiment.create(server, definition.name,
                                list(definition.variables),
                                definition.info)
        importer = Importer(exp, parse_input_xml(input_xml()))
        seeds = iter(range(1, 1000))
        for fname, content in generate_campaign(
                techniques=("listbased", "listless"),
                filesystems=("ufs", "nfs"), proc_counts=(4, 8),
                repetitions=1):
            importer.import_text(content, fname)
        cache = exp.query_cache()
        uncached = []
        for step, action in enumerate(list(history) + [QUERY]):
            kind = action[0]
            if kind == "import":
                _, technique, fs, procs = action
                ((fname, content),) = generate_campaign(
                    techniques=(technique,), filesystems=(fs,),
                    proc_counts=(procs,), repetitions=1,
                    seed=next(seeds))
                importer.import_text(content, fname)
            elif kind == "delete":
                runs = exp.run_indices()
                if runs:
                    exp.delete_run(runs[action[1] % len(runs)])
            elif kind == "add_variable":
                exp.add_variable(Result(
                    f"extra_{step}", datatype=DataType.FLOAT,
                    occurrence=Occurrence.MULTIPLE))
            elif kind == "modify_variable":
                exp.modify_variable(Result(
                    "B_scatter", datatype=DataType.FLOAT,
                    occurrence=Occurrence.MULTIPLE,
                    unit=Unit.parse("Mbyte/s"),
                    synopsis=f"scatter bandwidth, revision {step}"))
            else:
                order = ((0, 2) if action[1] == "serial" else (2, 0))
                for build in SUITE:
                    reference = query_outcome(exp, build())
                    for parallel in order:
                        assert_identical(
                            reference,
                            query_outcome(exp, build(), cache=cache,
                                          parallel=parallel,
                                          pushdown=True),
                            f"{backend} step {step} {build().name} "
                            f"parallel={parallel}")
                    uncached.append(reference)
        exp.close()
        return uncached
    run_differential(scenario)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(histories)
@example([QUERY, LISTLESS_UFS, QUERY, LISTLESS_UFS, QUERY,
          LISTLESS_UFS])
@example([QUERY, ("delete", 4), LISTLESS_UFS])
@example([QUERY, ("import", "listbased", "nfs", 8)])
@example([QUERY, ("add_variable",), LISTLESS_UFS, QUERY,
          ("modify_variable",), LISTLESS_UFS])
def test_cached_reanalysis_equals_uncached(history):
    replay(history)
