"""E9: scale check — import/query/status throughput at realistic
experiment sizes (hundreds of runs), the regime the paper's workflow
implies ("a large number of experiments is necessary").
"""

from __future__ import annotations

import pytest

from repro.query import (Operator, Output, ParameterSpec, Query, Source)
from repro.status import list_runs, missing_sweep_points
from _helpers import report


class TestScale:
    def test_import_throughput_files_per_second(self, benchmark,
                                                campaign):
        """Batch import of the 40-file campaign (text already in
        memory, so this times parse+validate+store)."""
        from repro import Experiment, MemoryServer
        from repro.parse import Importer
        from repro.workloads.beffio_assets import (experiment_xml,
                                                   input_xml)
        from repro.xmlio import parse_experiment_xml, parse_input_xml
        definition = parse_experiment_xml(experiment_xml())
        description = parse_input_xml(input_xml())

        def import_campaign():
            server = MemoryServer()
            exp = Experiment.create(server, "scale",
                                    list(definition.variables))
            imp = Importer(exp, description)
            for fname, content in campaign:
                imp.import_text(content, fname)
            return exp

        exp = benchmark.pedantic(import_campaign, rounds=3,
                                 iterations=1)
        assert exp.n_runs() == len(campaign)
        seconds = benchmark.stats.stats.mean
        benchmark.extra_info["files_per_second"] = round(
            len(campaign) / seconds, 1)

    def test_status_scan(self, benchmark, large_experiment):
        records = benchmark(lambda: list_runs(large_experiment))
        assert len(records) == 120

    def test_sweep_analysis(self, benchmark, large_experiment):
        holes = benchmark(lambda: missing_sweep_points(
            large_experiment,
            {"technique": ["listbased", "listless"],
             "fs": ["ufs", "nfs", "pvfs"]}, repetitions=30))
        assert len(holes) == 2  # pvfs never measured

    def test_full_query_on_120_runs(self, benchmark, large_experiment):
        q = Query([
            Source("s", parameters=[ParameterSpec("technique"),
                                    ParameterSpec("fs"),
                                    ParameterSpec("S_chunk"),
                                    ParameterSpec("access")],
                   results=["B_scatter"]),
            Operator("m", "avg", ["s"]),
            Operator("sd", "stddev", ["s"]),
            Output("o", ["m"], format="csv"),
        ], name="scan")
        result = benchmark(lambda: q.execute(large_experiment))
        assert result.artifacts

    def test_batched_import_throughput(self, benchmark, campaign):
        """The campaign import again, but through ``import_files``
        batching semantics: one storage batch for all files."""
        from repro import Experiment, MemoryServer
        from repro.parse import Importer
        from repro.workloads.beffio_assets import (experiment_xml,
                                                   input_xml)
        from repro.xmlio import parse_experiment_xml, parse_input_xml
        definition = parse_experiment_xml(experiment_xml())
        description = parse_input_xml(input_xml())

        def import_batched():
            server = MemoryServer()
            exp = Experiment.create(server, "scale_batched",
                                    list(definition.variables))
            imp = Importer(exp, description)
            with exp.batch():
                for fname, content in campaign:
                    imp.import_text(content, fname)
            return exp

        exp = benchmark.pedantic(import_batched, rounds=3,
                                 iterations=1)
        assert exp.n_runs() == len(campaign)
        seconds = benchmark.stats.stats.mean
        benchmark.extra_info["files_per_second"] = round(
            len(campaign) / seconds, 1)

    def test_report(self, benchmark, large_experiment):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        n_datasets = sum(
            large_experiment.run_record(i).n_datasets
            for i in large_experiment.run_indices())
        report("scale_throughput",
               f"large experiment: {large_experiment.n_runs()} runs, "
               f"{n_datasets} data sets\n"
               "(timings in the pytest-benchmark table)\n")
