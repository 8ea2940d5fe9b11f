"""Instrumentation tests: the DB backend, the import engine, the
serial query engine and the parallel executor all emit the expected
spans and metrics when a tracer is active — and stay silent otherwise."""

import pytest

from repro.db import SQLiteDatabase
from repro.obs import ELEMENT_KINDS, QueryProfile, Tracer, use_tracer
from repro.parallel import ParallelQueryExecutor, SimulatedCluster
from repro.parse import Importer
from repro.query import (Operator, Output, ParameterSpec, Query, Source)
from repro.workloads.beffio import generate_campaign
from repro.workloads.beffio_assets import experiment_xml, input_xml
from repro.xmlio import parse_experiment_xml, parse_input_xml

pytestmark = pytest.mark.obs


def small_query(name="traced"):
    return Query([
        Source("s", parameters=[ParameterSpec("S_chunk"),
                                ParameterSpec("access")],
               results=["bw"]),
        Operator("m", "avg", ["s"]),
        Output("table", ["m"], format="ascii"),
    ], name=name)


class TestDatabaseSpans:
    def test_statements_become_db_spans(self):
        tracer = Tracer()
        db = SQLiteDatabase()
        with use_tracer(tracer):
            db.create_table("t", [("x", "INTEGER")])
            db.insert_rows("t", ["x"], [(1,), (2,), (3,)])
            rows = db.fetchall("SELECT x FROM t ORDER BY x")
        db.close()
        assert rows == [(1,), (2,), (3,)]
        kinds = {s.kind for s in tracer.spans}
        assert kinds == {"db"}
        ops = {s.name for s in tracer.spans}
        assert "db.execute" in ops
        assert "db.executemany" in ops
        assert "db.fetchall" in ops
        # the first fetch reads the catalogue memo's tag before the
        # CREATE (see SQLiteDatabase._ddl); the SELECT is the last
        fetch = [s for s in tracer.spans if s.name == "db.fetchall"][-1]
        assert fetch.rows == 3
        assert "SELECT x FROM t" in fetch.attributes["sql"]

    def test_db_counters(self):
        tracer = Tracer()
        db = SQLiteDatabase()
        with use_tracer(tracer):
            db.create_table("t", [("x", "INTEGER")])
            db.insert_rows("t", ["x"], [(1,), (2,)])
            db.fetchall("SELECT x FROM t")
        db.close()
        metrics = tracer.metrics
        assert metrics.get("db.statements").value >= 3
        # the SELECT's two rows and the one row of the catalogue read
        # before the handle's first CREATE
        assert metrics.get("db.rows_fetched").value == 3

    def test_silent_without_tracer(self):
        db = SQLiteDatabase()
        db.create_table("t", [("x", "INTEGER")])
        assert db.fetchall("SELECT * FROM t") == []
        db.close()


class TestImporterSpans:
    def _import(self, server, tracer, repetitions=1):
        from repro import Experiment
        definition = parse_experiment_xml(experiment_xml())
        exp = Experiment.create(server, definition.name,
                                list(definition.variables),
                                definition.info)
        importer = Importer(exp, parse_input_xml(input_xml()))
        files = generate_campaign(repetitions=repetitions)
        with use_tracer(tracer):
            for fname, content in files:
                importer.import_text(content, fname)
        return exp, importer, files

    def test_file_and_run_spans(self, server):
        tracer = Tracer()
        _, _, files = self._import(server, tracer)
        file_spans = [s for s in tracer.spans
                      if s.kind == "import.file"]
        run_spans = [s for s in tracer.spans if s.kind == "import.run"]
        assert {s.name for s in file_spans} == \
            {fname for fname, _ in files}
        assert len(run_spans) == len(files)  # one run per .sum file
        # run spans nest under their file span
        file_ids = {s.span_id for s in file_spans}
        assert all(s.parent_id in file_ids for s in run_spans)
        for s in run_spans:
            assert s.rows == 24  # datasets per b_eff_io file
        for s in file_spans:
            assert s.bytes > 0
            assert s.attributes["runs"] == 1

    def test_import_counters_and_duplicates(self, server):
        tracer = Tracer()
        exp, importer, files = self._import(server, tracer)
        metrics = tracer.metrics
        assert metrics.get("import.files").value == len(files)
        assert metrics.get("import.runs_stored").value == len(files)
        assert metrics.get("import.datasets_stored").value == \
            24 * len(files)
        # re-import: every file is a duplicate
        with use_tracer(tracer):
            for fname, content in files:
                importer.import_text(content, fname)
        assert metrics.get("import.duplicates_skipped").value == \
            len(files)
        dupes = [s for s in tracer.spans
                 if s.attributes.get("duplicate")]
        assert len(dupes) == len(files)
        assert exp.n_runs() == len(files)


class TestEngineSpans:
    def test_element_spans_cover_the_graph(self, filled_experiment):
        tracer = Tracer()
        with use_tracer(tracer):
            small_query().execute(filled_experiment)
        elements = tracer.element_spans()
        assert [(s.name, s.kind) for s in elements] == \
            [("s", "source"), ("m", "operator"), ("table", "output")]
        root = next(s for s in tracer.spans if s.kind == "query")
        assert root.name == "traced"
        assert root.attributes["mode"] == "serial"
        assert all(s.parent_id == root.span_id for s in elements)
        source = elements[0]
        assert source.rows > 0
        assert source.attributes["cols"] > 0
        # DB statements nest below the elements; only the temp-table
        # teardown (after the query span closed) runs at the root: it
        # empties each table for the handle's pool
        db_spans = [s for s in tracer.spans if s.kind == "db"]
        element_ids = {s.span_id for s in elements}
        nested = [s for s in db_spans if s.parent_id is not None]
        assert nested
        loose = [s for s in db_spans if s.parent_id is None]
        assert loose
        assert all(s.attributes["sql"].startswith('DELETE FROM "pbq_')
                   for s in loose)
        # at least the sources' SELECTs sit directly under an element
        assert any(s.parent_id in element_ids for s in db_spans)

    def test_profile_from_spans_matches_ctx_profile(
            self, filled_experiment):
        tracer = Tracer()
        with use_tracer(tracer):
            result = small_query().execute(filled_experiment,
                                           profile=True)
        from_spans = QueryProfile.from_spans(tracer.spans, "traced")
        direct = result.profile
        assert [(t.name, t.kind, t.rows, t.cols)
                for t in from_spans.timings] == \
            [(t.name, t.kind, t.rows, t.cols)
             for t in direct.timings]
        for a, b in zip(from_spans.timings, direct.timings):
            assert a.seconds == pytest.approx(b.seconds, abs=1e-3)
        assert 0 <= from_spans.source_fraction() <= 1

    def test_from_spans_ignores_non_element_spans(
            self, filled_experiment):
        tracer = Tracer()
        with use_tracer(tracer):
            small_query().execute(filled_experiment)
        profile = QueryProfile.from_spans(tracer.spans)
        assert len(profile.timings) == len(tracer.element_spans())
        assert set(t.kind for t in profile.timings) <= ELEMENT_KINDS


class TestParallelSpans:
    def test_node_and_transfer_spans(self, filled_experiment):
        tracer = Tracer()
        cluster = SimulatedCluster(2)
        with use_tracer(tracer):
            _, stats = ParallelQueryExecutor(cluster).execute(
                small_query("par"), filled_experiment)
        cluster.shutdown()
        root = next(s for s in tracer.spans if s.kind == "parallel")
        assert root.attributes["nodes"] == 2
        nodes = [s for s in tracer.spans if s.kind == "node"]
        assert len(nodes) == 3  # one per element execution
        assert {s.attributes["element"] for s in nodes} == \
            {"s", "m", "table"}
        # every span's ancestry reaches the run root
        by_id = {s.span_id: s for s in tracer.spans}
        for span in tracer.spans:
            walk = span
            while walk.parent_id is not None:
                walk = by_id[walk.parent_id]
            assert walk is root
        transfers = [s for s in tracer.spans if s.kind == "transfer"]
        assert len(transfers) == stats.transfers
        for t in transfers:
            assert t.rows > 0 and t.bytes > 0

    def test_parallel_metrics(self, filled_experiment):
        tracer = Tracer()
        cluster = SimulatedCluster(2)
        with use_tracer(tracer):
            _, stats = ParallelQueryExecutor(cluster).execute(
                small_query("par"), filled_experiment)
        cluster.shutdown()
        metrics = tracer.metrics
        assert metrics.get("parallel.queries").value == 1
        assert metrics.get("parallel.busy_seconds").value == \
            pytest.approx(stats.busy_seconds)
        # one wait per element
        assert metrics.get("parallel.queue_waits").value == 3
        assert metrics.get("parallel.queue_wait_seconds").value == \
            pytest.approx(stats.queue_wait_seconds, abs=1e-6)
        if stats.transfers:
            assert metrics.get("transfer.vectors").value == \
                stats.transfers

    def test_queue_wait_tracked_without_tracer(self,
                                               filled_experiment):
        cluster = SimulatedCluster(2)
        _, stats = ParallelQueryExecutor(cluster).execute(
            small_query("par"), filled_experiment)
        cluster.shutdown()
        assert stats.queue_wait_seconds >= 0
