"""Edge-case tests for the parallel executor and cross-db attachment."""

import pytest

from repro.core import RunData
from repro.db import MemoryServer, SQLiteDatabase, SQLiteServer
from repro.parallel import ParallelQueryExecutor, SimulatedCluster
from repro.query import (Operator, Output, ParameterSpec, Query, Source)


def small_query():
    return Query([
        Source("s", parameters=[ParameterSpec("S_chunk"),
                                ParameterSpec("access")],
               results=["bw"]),
        Operator("m", "avg", ["s"]),
        Output("o", ["m"], format="csv"),
    ])


class TestAttachment:
    def test_private_memory_db_not_attachable(self):
        private = SQLiteDatabase()
        other = SQLiteDatabase()
        assert private.attachable_uri is None
        assert other.attach(private) is None

    def test_shared_memory_db_attachable(self):
        server = MemoryServer()
        shared = server.create_database("exp")
        shared.create_table("t", [("x", "INTEGER")])
        shared.insert_rows("t", ["x"], [(7,)])
        # shared-cache readers see committed state only; uncommitted
        # writes hold a table lock (the store commits after every
        # mutation, so this mirrors production behaviour)
        shared.commit()
        node = SQLiteDatabase()
        alias = node.attach(shared)
        assert alias is not None
        rows = node.fetchall(f"SELECT x FROM {alias}.t")
        assert rows == [(7,)]

    def test_attach_is_cached(self):
        server = MemoryServer()
        shared = server.create_database("exp")
        node = SQLiteDatabase()
        assert node.attach(shared) == node.attach(shared)

    def test_file_db_attachable(self, tmp_path):
        server = SQLiteServer(tmp_path)
        db = server.create_database("exp")
        db.create_table("t", [("x", "INTEGER")])
        db.insert_rows("t", ["x"], [(3,)])
        db.commit()
        node = SQLiteDatabase()
        alias = node.attach(db)
        assert alias is not None
        assert node.fetchall(f"SELECT x FROM {alias}.t") == [(3,)]

    def test_parallel_query_on_file_backed_experiment(
            self, tmp_path, filled_experiment):
        """File-backed experiments also take the attach fast path."""
        from repro import Experiment
        server = SQLiteServer(tmp_path)
        exp = Experiment.create(server, "simple",
                                list(filled_experiment.variables))
        for index in filled_experiment.run_indices():
            exp.store_run(filled_experiment.load_run(index))
        serial = small_query().execute(exp)
        cluster = SimulatedCluster(2)
        parallel, _ = ParallelQueryExecutor(cluster).execute(
            small_query(), exp)
        assert [a.content for a in serial.artifacts] == \
            [a.content for a in parallel.artifacts]
        cluster.shutdown()


class TestExecutorEdges:
    def test_single_element_chain_on_many_nodes(self,
                                                filled_experiment):
        # more nodes than elements must not deadlock or misroute
        cluster = SimulatedCluster(8)
        result, stats = ParallelQueryExecutor(cluster).execute(
            small_query(), filled_experiment)
        assert result.artifacts
        cluster.shutdown()

    def test_empty_experiment(self, simple_experiment):
        cluster = SimulatedCluster(2)
        result, _ = ParallelQueryExecutor(cluster).execute(
            small_query(), simple_experiment)
        assert "bw" in result.artifacts[0].content
        cluster.shutdown()

    def test_cluster_reusable_across_queries(self, filled_experiment):
        cluster = SimulatedCluster(2)
        executor = ParallelQueryExecutor(cluster)
        first, _ = executor.execute(small_query(), filled_experiment)
        second, _ = executor.execute(small_query(), filled_experiment)
        assert [a.content for a in first.artifacts] == \
            [a.content for a in second.artifacts]
        cluster.shutdown()
