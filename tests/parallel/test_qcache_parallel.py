"""Incremental execution on the simulated cluster: cache hits are
already-completed producers, the scheduler places the cold rest."""

from __future__ import annotations

import threading

import pytest

from repro import RunData
from repro.parallel import (LevelScheduler, LocalityScheduler,
                            ParallelQueryExecutor, RoundRobinScheduler,
                            SimulatedCluster)
from repro.workloads.beffio_assets import fig8_query_xml
from repro.xmlio import parse_query_xml

from ..conftest import fill_simple, make_simple_experiment
from ..query.test_qcache import build_query, vector_rows

pytestmark = pytest.mark.qcache


@pytest.fixture
def exp(server):
    return fill_simple(make_simple_experiment(server))


@pytest.fixture
def cluster():
    c = SimulatedCluster(3)
    yield c
    c.shutdown()


@pytest.fixture
def executor(cluster):
    return ParallelQueryExecutor(cluster)


class TestParallelWarmCold:
    def test_values_identical_to_serial(self, exp, executor):
        cache = exp.query_cache()
        serial = build_query().execute(exp, keep_temp_tables=True)
        serial_rows = vector_rows(serial)

        cold, cold_stats = executor.execute(build_query(), exp,
                                            cache=cache)
        assert cold_stats.cache_hits == 0
        assert cold_stats.cache_misses == 5
        assert (cold.artifact("o.csv").content
                == serial.artifact("o.csv").content)

        warm, warm_stats = executor.execute(build_query(), exp,
                                            cache=cache)
        assert warm_stats.cache_hits == 5
        assert warm_stats.cache_misses == 0
        assert (warm.artifact("o.csv").content
                == serial.artifact("o.csv").content)
        assert vector_rows(warm) == serial_rows

    def test_warm_run_places_only_cold_remainder(self, exp, executor):
        cache = exp.query_cache()
        _, cold_stats = executor.execute(build_query(), exp,
                                         cache=cache)
        # missed sources are stored on the frontend before scheduling
        assert set(cold_stats.placement) == {"a1", "a2", "c", "o"}
        _, warm_stats = executor.execute(build_query(), exp,
                                         cache=cache)
        # every cacheable element resolved upfront: only the output
        # element reaches the scheduler
        assert set(warm_stats.placement) == {"o"}

    @pytest.mark.parametrize("scheduler", [RoundRobinScheduler(),
                                           LevelScheduler(),
                                           LocalityScheduler()])
    def test_all_schedulers_support_skip(self, exp, cluster,
                                         scheduler):
        cache = exp.query_cache()
        executor = ParallelQueryExecutor(cluster, scheduler)
        cold, _ = executor.execute(build_query(), exp, cache=cache)
        warm, stats = executor.execute(build_query(), exp, cache=cache)
        assert stats.cache_hits == 5
        assert (warm.artifact("o.csv").content
                == cold.artifact("o.csv").content)

    def test_fig8_warm_run_all_hits(self, beffio_experiment, executor):
        """The paper's Fig. 8 query on 3 nodes: the warm run resolves
        both sources and all three operators from the cache."""
        cache = beffio_experiment.query_cache()
        query = parse_query_xml(fig8_query_xml())
        cold, cold_stats = executor.execute(query, beffio_experiment,
                                            cache=cache)
        warm, warm_stats = executor.execute(query, beffio_experiment,
                                            cache=cache)
        assert (cold_stats.cache_hits, cold_stats.cache_misses) == (0, 5)
        assert (warm_stats.cache_hits, warm_stats.cache_misses) == (5, 0)
        assert ([a.content for a in warm.artifacts]
                == [a.content for a in cold.artifacts])

    def test_without_cache_unchanged(self, exp, executor):
        result, stats = executor.execute(build_query(), exp)
        assert stats.cache_hits == 0 and stats.cache_misses == 0
        serial = build_query().execute(exp, keep_temp_tables=True)
        assert (result.artifact("o.csv").content
                == serial.artifact("o.csv").content)


class TestParallelInvalidation:
    def test_import_recomputes_then_downstream_hits(self, exp,
                                                    executor):
        cache = exp.query_cache()
        executor.execute(build_query(max_new=5), exp, cache=cache)
        exp.store_run(RunData(once={"technique": "old", "fs": "ufs"},
                              datasets=[{"S_chunk": 32,
                                         "access": "write",
                                         "bw": 999.0}]))
        post, stats = executor.execute(build_query(max_new=5), exp,
                                       cache=cache)
        # s1 is bounded to pre-import runs: its unchanged run set
        # lets the s1 -> a1 branch hit upfront
        assert stats.cache_hits == 2
        assert stats.cache_misses == 3
        serial = build_query(max_new=5).execute(exp,
                                                keep_temp_tables=True)
        assert (post.artifact("o.csv").content
                == serial.artifact("o.csv").content)

    def test_next_run_structurally_warm_again(self, exp, executor):
        cache = exp.query_cache()
        executor.execute(build_query(max_new=5), exp, cache=cache)
        exp.store_run(RunData(once={"technique": "old", "fs": "ufs"},
                              datasets=[{"S_chunk": 32,
                                         "access": "write",
                                         "bw": 999.0}]))
        executor.execute(build_query(max_new=5), exp, cache=cache)
        _, stats = executor.execute(build_query(max_new=5), exp,
                                    cache=cache)
        assert stats.cache_hits == 5
        assert stats.cache_misses == 0


class TestCrossExecutorSharing:
    def test_serial_warms_parallel(self, exp, executor):
        cache = exp.query_cache()
        serial = build_query().execute(exp, cache=cache)
        warm, stats = executor.execute(build_query(), exp, cache=cache)
        assert stats.cache_hits == 5
        assert (warm.artifact("o.csv").content
                == serial.artifact("o.csv").content)

    def test_parallel_warms_serial(self, exp, executor):
        cache = exp.query_cache()
        cold, _ = executor.execute(build_query(), exp, cache=cache)
        before = dict(cache.session)
        serial = build_query().execute(exp, cache=cache)
        assert cache.session["hits"] == before["hits"] + 5
        assert (serial.artifact("o.csv").content
                == cold.artifact("o.csv").content)

    def test_concurrent_parallel_executions(self, exp):
        cache = exp.query_cache()
        reference = build_query().execute(exp, keep_temp_tables=True)
        ref_csv = reference.artifact("o.csv").content
        results: list[str] = []
        errors: list[BaseException] = []

        def run(i):
            cluster = SimulatedCluster(2)
            try:
                r, _ = ParallelQueryExecutor(cluster).execute(
                    build_query(f"q{i}"), exp, cache=cache)
                results.append(r.artifact("o.csv").content)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                cluster.shutdown()

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results == [ref_csv] * 3
        assert cache.stat()["entries"] == 5
