"""Unit tests for the serial query engine (Section 4.2 execution
model: temp tables in the experiment database, torn down afterwards)."""

import pytest

from repro.core import AccessError, RunData
from repro.query import (Operator, Output, ParameterSpec, Query, Source)


def fig_query():
    return Query([
        Source("s", parameters=[ParameterSpec("S_chunk"),
                                ParameterSpec("access")],
               results=["bw"]),
        Operator("m", "avg", ["s"]),
        Output("table", ["m"], format="ascii"),
        Output("data", ["m"], format="csv"),
    ], name="demo")


class TestExecution:
    def test_artifacts_collected(self, filled_experiment):
        result = fig_query().execute(filled_experiment)
        names = [a.name for a in result.artifacts]
        assert names == ["table.txt", "data.csv"]

    def test_artifact_lookup(self, filled_experiment):
        result = fig_query().execute(filled_experiment)
        assert "rows" in result.artifact("table.txt").content
        with pytest.raises(KeyError):
            result.artifact("ghost")

    def test_temp_tables_dropped(self, filled_experiment):
        # every table the query added is released: an idle pooled temp
        # table holding no rows
        db = filled_experiment.store.db
        before = set(db.list_tables())
        fig_query().execute(filled_experiment)
        added = set(db.list_tables()) - before
        assert added
        assert all(db.temp_pool.is_idle(t) and db.count_rows(t) == 0
                   for t in added)

    def test_temp_tables_kept_on_request(self, filled_experiment):
        db = filled_experiment.store.db
        before = set(db.list_tables())
        result = fig_query().execute(filled_experiment,
                                     keep_temp_tables=True)
        assert set(db.list_tables()) > before
        assert result.vectors["m"].n_rows == 6

    def test_temp_tables_dropped_on_failure(self, filled_experiment):
        db = filled_experiment.store.db
        before = set(db.list_tables())
        bad = Query([
            Source("s", parameters=[ParameterSpec("S_chunk")],
                   results=["bw"]),
            Operator("e", "eval", ["s"], expression="ghost + 1"),
            Output("o", ["e"]),
        ])
        with pytest.raises(Exception):
            bad.execute(filled_experiment)
        added = set(db.list_tables()) - before
        assert all(db.temp_pool.is_idle(t) and db.count_rows(t) == 0
                   for t in added)

    def test_no_transaction_left_open(self, filled_experiment):
        db = filled_experiment.store.db
        assert not db._conn.in_transaction
        for pushdown in (False, True):
            fig_query().execute(filled_experiment, pushdown=pushdown)
            assert not db._conn.in_transaction
        fig_query().execute(filled_experiment, keep_temp_tables=True)
        assert not db._conn.in_transaction

    def test_callers_transaction_stays_the_callers(self,
                                                   filled_experiment):
        db = filled_experiment.store.db
        db.begin()
        fig_query().execute(filled_experiment)
        assert db._conn.in_transaction
        db.rollback()

    def test_profile_collected(self, filled_experiment):
        from repro.obs import current_tracer
        result = fig_query().execute(filled_experiment, profile=True)
        # the run's private tracer is not left active
        assert current_tracer() is None
        prof = result.profile
        kinds = {t.kind for t in prof.timings}
        assert kinds == {"source", "operator", "output"}
        assert 0 < prof.source_fraction() < 1
        assert "source fraction" in prof.report()

    def test_profile_is_typed_queryprofile_or_none(
            self, filled_experiment):
        # regression: `profile` used to be a stringly-typed object slot
        from repro.obs import QueryProfile
        with_profile = fig_query().execute(filled_experiment,
                                           profile=True)
        assert isinstance(with_profile.profile, QueryProfile)
        without = fig_query().execute(filled_experiment)
        assert without.profile is None

    def test_write_all(self, filled_experiment, tmp_path):
        result = fig_query().execute(filled_experiment)
        paths = result.write_all(str(tmp_path))
        assert len(paths) == 2
        assert (tmp_path / "table.txt").exists()

    def test_query_access_enforced(self, server):
        from repro import Experiment, Parameter, Result
        exp = Experiment.create(server, "locked", [
            Parameter("S_chunk", datatype="integer",
                      occurrence="multiple"),
            Parameter("access", occurrence="multiple"),
            Result("bw", datatype="float", occurrence="multiple"),
        ], user="admin")
        exp.grant("writer", "input")
        stranger = Experiment.open(server, "locked", user="nobody")
        with pytest.raises(AccessError):
            fig_query().execute(stranger)

    def test_empty_experiment_gives_empty_artifacts(
            self, simple_experiment):
        result = fig_query().execute(simple_experiment)
        assert "(0 rows)" in result.artifact("table.txt").content

    def test_rerunnable(self, filled_experiment):
        q = fig_query()
        first = q.execute(filled_experiment)
        second = q.execute(filled_experiment)
        assert [a.content for a in first.artifacts] == \
            [a.content for a in second.artifacts]
