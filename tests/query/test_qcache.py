"""Incremental query engine: the element-result cache, keyed by each
element's spec and the runs it reads (warm/cold identity, invalidation,
eviction, concurrency)."""

from __future__ import annotations

import json
import threading

import pytest

from repro import Parameter, RunData
from repro.core import DataType, Occurrence
from repro.core.datatypes import sql_type
from repro.obs import InMemorySink, Tracer, use_tracer
from repro.query import (DEFAULT_BUDGET_BYTES, Combiner, Operator,
                         Output, ParameterSpec, Query, QueryCache,
                         RunFilter, Source)
from repro.query.cache import (CACHE_PREFIX, CACHE_TABLE, columns_to_json,
                               plan_cached_run)

from ..conftest import fill_simple, make_simple_experiment

pytestmark = pytest.mark.qcache


def build_query(name="q", *, max_new=None):
    """Two filtered sources -> avg -> combine -> csv output."""
    s1 = Source("s1",
                parameters=[ParameterSpec("technique", "new", "==",
                                          False)],
                results=["bw"], runs=RunFilter(max_index=max_new))
    s2 = Source("s2",
                parameters=[ParameterSpec("technique", "old", "==",
                                          False)],
                results=["bw"], runs=RunFilter())
    a1 = Operator("a1", op="avg", inputs=["s1"])
    a2 = Operator("a2", op="avg", inputs=["s2"])
    c = Combiner("c", inputs=["a1", "a2"])
    o = Output("o", inputs=["c"], format="csv")
    return Query([s1, s2, a1, a2, c, o], name=name)


def vector_rows(result):
    return {name: vector.rows()
            for name, vector in result.vectors.items()}


@pytest.fixture
def exp(server):
    return fill_simple(make_simple_experiment(server))


@pytest.fixture
def cache(exp):
    return exp.query_cache()


class TestFingerprints:
    def test_stable_across_instances(self):
        fp1 = build_query().graph.fingerprints({"data_version": 1})
        fp2 = build_query().graph.fingerprints({"data_version": 1})
        assert fp1 == fp2

    def test_sensitive_to_spec(self):
        base = build_query().graph.fingerprints({"data_version": 1})
        changed = build_query(max_new=2).graph.fingerprints(
            {"data_version": 1})
        # s1's run filter changed: s1 and its consumers differ,
        # the untouched s2 subgraph keeps its fingerprints
        assert changed["s1"] != base["s1"]
        assert changed["a1"] != base["a1"]
        assert changed["c"] != base["c"]
        assert changed["s2"] == base["s2"]
        assert changed["a2"] == base["a2"]

    def test_data_version_reaches_every_element(self):
        v1 = build_query().graph.fingerprints({"data_version": 1})
        v2 = build_query().graph.fingerprints({"data_version": 2})
        assert all(v1[name] != v2[name] for name in v1)

    def test_outputs_are_uncacheable(self, exp, cache):
        build_query().execute(exp, cache=cache)
        assert not build_query().elements["o"].cacheable
        assert {e.element for e in cache.entries()} == \
            {"s1", "s2", "a1", "a2", "c"}

    def test_run_set_keys_only_the_matching_chain(self, exp, cache):
        """An import changes the keys of the sources it matches and of
        their consumers, nothing else."""
        before = plan_cached_run(cache, build_query().graph, exp).keys
        exp.store_run(RunData(once={"technique": "old", "fs": "ufs"},
                              datasets=[{"S_chunk": 32,
                                         "access": "write",
                                         "bw": 999.0}]))
        after = plan_cached_run(cache, build_query().graph, exp).keys
        assert {name for name in before if before[name] != after[name]} \
            == {"s2", "a2", "c", "o"}

    def test_schema_counter_reaches_every_key(self, exp, cache):
        before = plan_cached_run(cache, build_query().graph, exp).keys
        exp.add_variable(Parameter("extra", datatype=DataType.FLOAT,
                                   occurrence=Occurrence.ONCE))
        after = plan_cached_run(cache, build_query().graph, exp).keys
        assert all(before[name] != after[name] for name in before)


class TestWarmColdIdentity:
    def test_serial_values_identical(self, exp, cache):
        cold = build_query().execute(exp, keep_temp_tables=True,
                                     cache=cache)
        assert cache.session["stores"] == 5
        assert cache.session["hits"] == 0
        cold_rows = vector_rows(cold)

        warm = build_query().execute(exp, cache=cache)
        assert cache.session["hits"] == 5
        assert vector_rows(warm) == cold_rows
        assert (warm.artifact("o.csv").content
                == cold.artifact("o.csv").content)

    def test_cache_off_by_default(self, exp):
        build_query().execute(exp)
        assert not exp.store.db.table_exists(CACHE_TABLE)

    def test_third_run_still_hits(self, exp, cache):
        build_query().execute(exp, cache=cache)
        build_query().execute(exp, cache=cache)
        before = dict(cache.session)
        build_query().execute(exp, cache=cache)
        assert cache.session["hits"] == before["hits"] + 5
        assert cache.session["stores"] == before["stores"]

    def test_cache_true_uses_experiment_default(self, exp):
        build_query().execute(exp, cache=True)
        warm = build_query().execute(exp, cache=True)
        assert exp.store.db.table_exists(CACHE_TABLE)
        assert vector_rows(warm)  # hits produce readable vectors

    def test_hits_marked_in_profile(self, exp, cache):
        build_query().execute(exp, cache=cache)
        warm = build_query().execute(exp, cache=cache, profile=True)
        cached = {t.name for t in warm.profile.timings if t.cached}
        assert cached == {"s1", "s2", "a1", "a2", "c"}
        # the (uncacheable) output element always renders cold
        assert warm.profile.cached_fraction() == pytest.approx(5 / 6)


class TestInvalidation:
    def test_import_reexecutes_affected(self, exp, cache):
        cold = build_query().execute(exp, cache=cache)
        exp.store_run(RunData(once={"technique": "old", "fs": "ufs"},
                              datasets=[{"S_chunk": 32,
                                         "access": "write",
                                         "bw": 999.0}]))
        post = build_query().execute(exp, keep_temp_tables=True,
                                     cache=cache)
        # the new run flows into the result (no stale serving)
        assert post.artifact("o.csv").content \
            != cold.artifact("o.csv").content
        uncached = build_query().execute(exp, keep_temp_tables=True)
        assert vector_rows(post) == vector_rows(uncached)

    def test_untouched_subgraph_still_hits(self, exp, cache):
        # s1 bounded to existing runs: an import elsewhere leaves its
        # run set unchanged, so the s1 -> a1 branch hits structurally
        q = lambda: build_query(max_new=5)
        q().execute(exp, cache=cache)
        exp.store_run(RunData(once={"technique": "old", "fs": "ufs"},
                              datasets=[{"S_chunk": 32,
                                         "access": "write",
                                         "bw": 999.0}]))
        before = dict(cache.session)
        q().execute(exp, cache=cache)
        delta = {k: cache.session[k] - before[k] for k in before}
        # s1 and a1 hit; s2 (its run set grew), a2 and c re-execute
        assert delta["hits"] == 2
        assert delta["stores"] == 3

    def test_skey_refresh_restores_structural_hits(self, exp, cache):
        q = lambda: build_query(max_new=5)
        q().execute(exp, cache=cache)
        exp.store_run(RunData(once={"technique": "old", "fs": "ufs"},
                              datasets=[{"S_chunk": 32,
                                         "access": "write",
                                         "bw": 999.0}]))
        q().execute(exp, cache=cache)
        before = dict(cache.session)
        q().execute(exp, cache=cache)
        delta = {k: cache.session[k] - before[k] for k in before}
        assert delta == {"hits": 5, "misses": 0, "stores": 0,
                         "evictions": 0}

    def test_modify_variable_invalidates(self, exp, cache):
        build_query().execute(exp, cache=cache)
        before_counter = exp.store.schema_counter()
        changed = Parameter("technique", datatype=DataType.STRING,
                            synopsis="renamed variant")
        exp.modify_variable(changed)
        assert exp.store.schema_counter() == before_counter + 1
        before = dict(cache.session)
        post = build_query().execute(exp, keep_temp_tables=True,
                                     cache=cache)
        assert cache.session["stores"] > before["stores"]
        uncached = build_query().execute(exp, keep_temp_tables=True)
        assert vector_rows(post) == vector_rows(uncached)

    def test_delete_run_invalidates(self, exp, cache):
        cold = build_query().execute(exp, keep_temp_tables=True,
                                     cache=cache)
        exp.delete_run(exp.run_indices()[0])
        post = build_query().execute(exp, keep_temp_tables=True,
                                     cache=cache)
        uncached = build_query().execute(exp, keep_temp_tables=True)
        assert vector_rows(post) == vector_rows(uncached)
        assert post.artifact("o.csv").content \
            != cold.artifact("o.csv").content

    def test_deleting_an_imported_run_restores_every_vector(self, exp,
                                                           cache):
        """The import's store of s2 drops s2's old entry, and the
        delete selects the old runs again: s1, a1, a2 and c hit their
        old entries, and s2, whose entry is gone, still runs."""
        build_query().execute(exp, cache=cache)
        index = exp.store_run(RunData(
            once={"technique": "old", "fs": "ufs"},
            datasets=[{"S_chunk": 32, "access": "write", "bw": 999.0}]))
        build_query().execute(exp, cache=cache)
        exp.delete_run(index)
        before = dict(cache.session)
        post = build_query().execute(exp, keep_temp_tables=True,
                                     cache=cache)
        uncached = build_query().execute(exp, keep_temp_tables=True)
        assert vector_rows(post) == vector_rows(uncached)
        assert {k: cache.session[k] - before[k]
                for k in ("hits", "misses")} == {"hits": 4, "misses": 1}

    def test_schema_evolution_invalidates(self, exp, cache):
        build_query().execute(exp, cache=cache)
        exp.add_variable(Parameter("extra", datatype=DataType.FLOAT,
                                   occurrence=Occurrence.ONCE))
        before = dict(cache.session)
        post = build_query().execute(exp, keep_temp_tables=True,
                                     cache=cache)
        assert cache.session["misses"] > before["misses"]
        uncached = build_query().execute(exp, keep_temp_tables=True)
        assert vector_rows(post) == vector_rows(uncached)

    def test_prune_stale_drops_old_source_entries(self, exp, cache):
        build_query().execute(exp, cache=cache)
        exp.add_variable(Parameter("extra", datatype=DataType.FLOAT,
                                   occurrence=Occurrence.ONCE))
        dropped = cache.prune_stale()
        assert dropped == 2  # both source entries are unreachable
        kinds = {e.kind for e in cache.entries()}
        assert "source" not in kinds

    def test_import_keeps_source_entries_until_restored(self, exp,
                                                        cache):
        """An import changes no schema counter, so nothing is pruned;
        storing the matching source's new entry drops its old one."""
        build_query().execute(exp, cache=cache)
        exp.store_run(RunData(once={"technique": "new", "fs": "ufs"},
                              datasets=[{"S_chunk": 32,
                                         "access": "read",
                                         "bw": 7.0}]))
        assert cache.prune_stale() == 0
        old = {e.element: e.key for e in cache.entries()}
        build_query().execute(exp, cache=cache)
        sources = {e.element: e.key for e in cache.entries()
                   if e.kind == "source"}
        assert sources["s2"] == old["s2"]  # run set unchanged
        assert sources["s1"] != old["s1"]  # one entry per source


class TestEviction:
    def test_lru_under_byte_budget(self, exp):
        cold = build_query().execute(exp, cache=exp.query_cache())
        full = exp.query_cache().stat()["bytes"]
        exp.query_cache().clear()

        small = exp.query_cache(budget_bytes=full - 1)
        build_query().execute(exp, cache=small)
        assert small.session["evictions"] >= 1
        assert small.stat()["bytes"] <= full - 1
        # correctness survives eviction: a warm run still renders the
        # cold result (evicted ancestors of a cached consumer run again)
        warm = build_query().execute(exp, keep_temp_tables=True,
                                     cache=small)
        uncached = build_query().execute(exp, keep_temp_tables=True)
        assert (warm.artifact("o.csv").content
                == uncached.artifact("o.csv").content)
        assert (warm.artifact("o.csv").content
                == cold.artifact("o.csv").content)
        warm_rows = vector_rows(warm)
        uncached_rows = vector_rows(uncached)
        for name in warm_rows:
            assert warm_rows[name] == uncached_rows[name]

    def test_eviction_drops_least_recently_used(self, exp):
        cache = exp.query_cache()
        build_query().execute(exp, cache=cache)
        entries = cache.entries()  # most recently used first
        lru_key = entries[-1].key
        cache.budget_bytes = cache.stat()["bytes"] - 1
        evicted = cache.evict_to_budget()
        assert lru_key in evicted

    def test_clear_drops_payload_tables(self, exp, cache):
        build_query().execute(exp, cache=cache)
        tables = [t for t in exp.store.db.list_tables()
                  if t.startswith(CACHE_PREFIX)]
        assert tables
        cache.clear()
        assert not any(t.startswith(CACHE_PREFIX)
                       for t in exp.store.db.list_tables())
        assert cache.stat()["entries"] == 0


class TestConcurrency:
    def test_threads_share_one_cache(self, exp, cache):
        reference = build_query().execute(exp, keep_temp_tables=True)
        ref_csv = reference.artifact("o.csv").content
        results: list[str] = []
        errors: list[BaseException] = []

        def run(i):
            try:
                r = build_query(f"q{i}").execute(exp, cache=cache)
                results.append(r.artifact("o.csv").content)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results == [ref_csv] * 4
        # element payloads are deduplicated across the query names
        assert cache.stat()["entries"] == 5


class TestObservability:
    def test_metrics_and_span_attributes(self, exp, cache):
        tracer = Tracer(InMemorySink())
        with use_tracer(tracer):
            build_query().execute(exp, cache=cache)
            build_query().execute(exp, cache=cache)
        tracer.close()
        counters = {name: tracer.metrics.counter(name).value
                    for name in ("qcache.hits", "qcache.misses",
                                 "qcache.stores")}
        assert counters["qcache.stores"] == 5
        assert counters["qcache.hits"] == 5
        assert counters["qcache.misses"] >= 5
        by_outcome = {"hit": set(), "miss": set()}
        for span in tracer.spans:
            outcome = span.attributes.get("cache")
            if outcome in by_outcome:
                by_outcome[outcome].add(span.name)
        assert by_outcome["hit"] == {"s1", "s2", "a1", "a2", "c"}
        assert by_outcome["miss"] == {"s1", "s2", "a1", "a2", "c"}

    def test_stat_summary(self, exp, cache):
        build_query().execute(exp, cache=cache)
        stat = cache.stat()
        assert stat["entries"] == 5
        assert stat["bytes"] > 0
        assert stat["budget_bytes"] == DEFAULT_BUDGET_BYTES
        assert stat["schema_counter"] == exp.store.schema_counter()

    def test_entries_record_their_keys_and_payload_size(self, exp,
                                                       cache):
        """Each entry sits under its element's planned key, and
        ``n_bytes`` is sized from the column types and the row count:
        the column header's compact JSON plus, per row, 8 bytes per
        INTEGER or REAL column and 24 per TEXT column."""
        build_query().execute(exp, cache=cache)
        keys = plan_cached_run(cache, build_query().graph, exp).keys
        entries = cache.entries()
        assert {e.element: e.key for e in entries} == \
            {name: keys[name] for name in ("s1", "s2", "a1", "a2", "c")}
        # one more entry with INTEGER, TEXT and REAL columns
        Query([Source("typed", parameters=[ParameterSpec("S_chunk"),
                                           ParameterSpec("access")],
                      results=["bw"]),
               Output("o", inputs=["typed"], format="csv")],
              name="typed").execute(exp, cache=cache)
        entries = cache.entries()
        assert {e.element for e in entries} == \
            {"s1", "s2", "a1", "a2", "c", "typed"}
        widths = {"INTEGER": 8, "REAL": 8, "TEXT": 24}
        for entry in entries:
            vector = cache.load(entry)
            header = json.dumps(
                {"columns": columns_to_json(vector.columns),
                 "from_source": vector.from_source},
                sort_keys=True, separators=(",", ":"), default=str)
            width = sum(widths[sql_type(c.datatype)]
                        for c in vector.columns)
            assert entry.n_rows == len(vector.rows()) > 0
            assert entry.n_bytes == len(header) + entry.n_rows * width
        typed = next(e for e in entries if e.element == "typed")
        assert [sql_type(c.datatype) for c in typed.columns] == \
            ["INTEGER", "TEXT", "REAL"]
        assert typed.n_bytes == len(json.dumps(
            {"columns": columns_to_json(typed.columns),
             "from_source": True},
            sort_keys=True, separators=(",", ":"))) + typed.n_rows * 40


class TestArtifactErrors:
    def test_keyerror_lists_available(self, exp):
        result = build_query().execute(exp)
        with pytest.raises(KeyError, match="available: o.csv"):
            result.artifact("nope")

    def test_keyerror_when_empty(self, exp):
        result = Query([Source("s", results=["bw"])],
                       name="no_outputs").execute(exp)
        with pytest.raises(KeyError, match="available: none"):
            result.artifact("o.csv")
