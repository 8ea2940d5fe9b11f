"""Unit tests for the experiment store: schema layout (Section 4.2),
run storage, variable serialisation and the duplicate-import guard."""

import re
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (DataType, Parameter, Result, RunData, Unit,
                        VariableSet)
from repro.core.errors import DatabaseError, NoSuchRunError
from repro.db import (ExperimentStore, SQLiteDatabase, schema,
                      variable_from_json, variable_to_json)
from repro.db.schema import _decode_value


@pytest.fixture
def store():
    s = ExperimentStore(SQLiteDatabase())
    s.initialise("demo")
    return s


def varset():
    return VariableSet([
        Parameter("t", datatype="integer"),
        Parameter("when", datatype="timestamp"),
        Parameter("flag", datatype="boolean"),
        Parameter("size", datatype="integer", occurrence="multiple"),
        Result("bw", datatype="float", occurrence="multiple"),
    ])


class TestSchemaLayout:
    def test_meta_tables_created(self, store):
        tables = store.db.list_tables()
        # "Each experiment database has some tables for meta information
        # and one table for parameters and results with a unique
        # occurrence per run" (Section 4.2)
        for expected in ("pb_meta", "pb_variables", "pb_runs",
                         "pb_run_files", "pb_once"):
            assert expected in tables

    def test_double_initialise_rejected(self, store):
        with pytest.raises(DatabaseError):
            store.initialise("again")

    def test_per_run_table_created(self, store):
        # "For each new run, one table is created which contains the
        # tabular data."
        store.save_variables(varset())
        store.store_run(RunData(once={"t": 1},
                                datasets=[{"size": 2, "bw": 1.5}]),
                        varset())
        assert store.db.table_exists("rundata_1")

    def test_meta_kv(self, store):
        store.set_meta("k", {"nested": [1, 2]})
        assert store.get_meta("k") == {"nested": [1, 2]}
        assert store.get_meta("missing", "dflt") == "dflt"
        store.set_meta("k", "replaced")
        assert store.get_meta("k") == "replaced"


class TestVariableSerialisation:
    def test_roundtrip_all_fields(self):
        var = Result("bw", datatype=DataType.FLOAT,
                     synopsis="bandwidth", description="desc",
                     occurrence="multiple", unit=Unit.parse("MB/s"),
                     valid_values=(1.0, 2.0), default=1.0)
        back = variable_from_json(variable_to_json(var))
        assert back == var
        assert back.is_result

    def test_roundtrip_timestamp_default(self):
        var = Parameter("when", datatype="timestamp",
                        default=datetime(2004, 11, 23, 18, 30, 30))
        back = variable_from_json(variable_to_json(var))
        assert back.default == datetime(2004, 11, 23, 18, 30, 30)

    def test_save_load_variables(self, store):
        store.save_variables(varset())
        assert store.load_variables() == varset()


class TestRunStorage:
    def test_roundtrip_types(self, store):
        store.save_variables(varset())
        when = datetime(2004, 11, 23, 18, 30, 30)
        run = RunData(once={"t": 10, "when": when, "flag": True},
                      datasets=[{"size": 32, "bw": 1.5},
                                {"size": 64, "bw": 2.5}])
        idx = store.store_run(run, varset())
        back = store.load_run(idx)
        assert back.once == {"t": 10, "when": when, "flag": True}
        assert back.datasets == [{"size": 32, "bw": 1.5},
                                 {"size": 64, "bw": 2.5}]

    def test_none_values_dropped_on_load(self, store):
        store.save_variables(varset())
        idx = store.store_run(RunData(once={"t": 1},
                                      datasets=[{"size": 1}]),
                              varset())
        back = store.load_run(idx)
        assert "bw" not in back.datasets[0]
        assert "when" not in back.once

    def test_dataset_order_preserved(self, store):
        store.save_variables(varset())
        sizes = list(range(50, 0, -1))
        idx = store.store_run(
            RunData(once={"t": 1},
                    datasets=[{"size": s, "bw": float(s)}
                              for s in sizes]), varset())
        back = store.load_datasets(idx)
        assert [d["size"] for d in back] == sizes

    def test_missing_run_raises(self, store):
        store.save_variables(varset())
        with pytest.raises(NoSuchRunError):
            store.load_run(99)
        with pytest.raises(NoSuchRunError):
            store.run_record(99)
        with pytest.raises(NoSuchRunError):
            store.delete_run(99)

    def test_delete_drops_table(self, store):
        store.save_variables(varset())
        idx = store.store_run(RunData(once={"t": 1},
                                      datasets=[{"size": 1, "bw": 1.0}]),
                              varset())
        store.delete_run(idx)
        assert not store.db.table_exists(f"rundata_{idx}")
        assert store.run_indices() == []
        assert store.run_indices(include_inactive=True) == [idx]


class TestDuplicateGuard:
    def test_checksum_recorded_and_found(self, store):
        store.save_variables(varset())
        run = RunData(once={"t": 1}, source_files=["out.txt"])
        run.file_checksums["out.txt"] = "abc123"
        idx = store.store_run(run, varset())
        assert store.find_import("abc123") == idx
        assert store.find_import("other") is None

    def test_deleted_run_checksum_forgotten(self, store):
        store.save_variables(varset())
        run = RunData(once={"t": 1}, source_files=["out.txt"])
        run.file_checksums["out.txt"] = "abc123"
        idx = store.store_run(run, varset())
        store.delete_run(idx)
        # a deleted run's file may be imported again
        assert store.find_import("abc123") is None


def _strptime_decode(value):
    """The timestamp decoder before stored shapes got a fast path."""
    for fmt in ("%Y-%m-%d %H:%M:%S.%f", "%Y-%m-%d %H:%M:%S"):
        try:
            return datetime.strptime(str(value), fmt)
        except ValueError:
            continue
    raise DatabaseError(f"bad stored timestamp {value!r}")


def _decoded(decode, value):
    try:
        return decode(value)
    except DatabaseError:
        return "error"


_TIMESTAMP_TEXT = st.one_of(
    # both stored shapes, and str() of a datetime
    st.datetimes(min_value=datetime(1000, 1, 1)).flatmap(
        lambda d: st.sampled_from([
            d.strftime("%Y-%m-%d %H:%M:%S.%f"),
            d.strftime("%Y-%m-%d %H:%M:%S"), str(d)])),
    # padded or unpadded fields, out of range among them, and
    # fractions of none to nine digits
    st.tuples(st.sampled_from(["%d-%d-%d %d:%d:%d",
                               "%04d-%02d-%02d %02d:%02d:%02d"]),
              st.integers(1, 9999), st.integers(0, 13),
              st.integers(0, 32), st.integers(0, 25), st.integers(0, 61),
              st.integers(0, 62), st.text("0123456789", max_size=9)).map(
        lambda t: t[0] % t[1:7] + ("." + t[7] if t[7] else "")),
    # the stored layout over any characters, ISO variants among them
    st.text("0123456789-: .T+Z٣", min_size=17, max_size=28),
    st.text(max_size=30))


@settings(max_examples=400, deadline=None)
@given(_TIMESTAMP_TEXT)
def test_timestamp_decode_matches_strptime(text):
    assert _decoded(lambda v: _decode_value(v, DataType.TIMESTAMP),
                    text) == _decoded(_strptime_decode, text)


def test_run_records_decode_as_strptime(store, monkeypatch):
    store.save_variables(varset())
    for i in range(4):
        store.store_run(RunData(
            once={"t": i, "when": datetime(2005, 3, 1, 12, 0, i, i * 7),
                  "flag": True},
            datasets=[{"size": 1, "bw": 1.0}]),
            created=datetime(2006, 1, 2, 3, 4, i))
    fast = store.run_records()
    monkeypatch.setattr(schema, "_STORED_TIMESTAMP",
                        re.compile("(?!)"))  # no string takes the fast path
    assert fast == store.run_records()
    assert [r.created.second for r in fast] == [0, 1, 2, 3]
