"""Warm fused queries after one change of data: the rows of a cold run.

A source keeps its fragments on the experiment handle, and the columnar
engine keeps each ``UNION ALL``'s batches on its database.  Each case
here first runs fused fig8 and stddev twice on one handle, so both are
kept, then makes one change and runs both fused again.  Their rows must
equal a ``pushdown=False`` run on a fresh handle: an experiment built
alike, with the same change, that never ran a query.
"""

from __future__ import annotations

import pytest

from repro.core import DataType, Occurrence, Result
from repro.core.datatypes import sql_type
from repro.testing import DIFF_BACKENDS, query_outcome
from repro.workloads.beffio import generate_campaign
from repro.workloads.beffio_assets import fig8_query_xml, stddev_query_xml
from repro.xmlio import parse_query_xml
from tests.diffdb.test_pushdown_diff import _assert_fused_matches
from tests.query.test_qcache_extend import beffio

pytestmark = [pytest.mark.diffdb, pytest.mark.pushdown]

QUERIES = {"fig8": fig8_query_xml, "stddev": stddev_query_xml}

#: the first listless/ufs run, read by fig8's ``src_new`` and stddev
RUN = 4
TABLE = f'"rundata_{RUN}"'

#: one more read data set of run 4, the largest of its chunk size
INSERT = (f"INSERT INTO {TABLE} (dataset_index, pos, S_chunk, access, "
          "N_proc, B_scatter, B_shared, B_separate, B_segmented, "
          "B_segcoll) VALUES (24, 1, 32, 'read', 4, 999.5, 999.5, 999.5, "
          "999.5, 999.5)")


def build(backend):
    return beffio(backend, generate_campaign(repetitions=3))


def warmed(backend):
    exp, importer = build(backend)
    for _ in range(2):
        for xml in QUERIES.values():
            parse_query_xml(xml()).execute(exp, pushdown=True)
    return exp, importer


def reference(backend, change):
    """Each query's snapshot, unfused, on a never-queried experiment
    after ``change``."""
    exp, importer = build(backend)
    change(exp, importer)
    return {name: query_outcome(exp, parse_query_xml(xml()))
            for name, xml in QUERIES.items()}


def assert_cold_rows(exp, expected, context):
    for name, xml in QUERIES.items():
        fused = query_outcome(exp, parse_query_xml(xml()), pushdown=True)
        _assert_fused_matches(expected[name], fused, f"{context} {name}")


def import_matching(exp, importer):
    for fname, content in generate_campaign(techniques=("listless",),
                                            repetitions=1, seed=7):
        importer.import_text(content, fname)


def delete_run(exp, importer):
    exp.delete_run(RUN)


def add_variable(exp, importer):
    """A new result: no row of these queries changes, but the handle's
    variable set does, and on the columnar engine every run table's
    layout."""
    exp.add_variable(Result("latency", datatype=DataType.FLOAT,
                            occurrence=Occurrence.MULTIPLE))


def drop_run_table(exp, importer):
    """The table goes behind perfbase's back: its run stays active."""
    exp.store.db.execute(f"DROP TABLE {TABLE}")
    exp.store.db.commit()


def insert_row(exp, importer):
    exp.store.db.execute(INSERT)
    exp.store.db.commit()


def recreate_run_table(exp, importer):
    """DROP and CREATE of one name: the same layout, other rows."""
    db = exp.store.db
    rows = db.fetchall(f"SELECT * FROM {TABLE} ORDER BY dataset_index")
    columns = [("dataset_index", "INTEGER")] + [
        (v.name, sql_type(v.datatype)) for v in exp.variables.multiple()]
    scatter = [name for name, _type in columns].index("B_scatter")
    db.execute(f"DROP TABLE {TABLE}")
    db.create_table(TABLE.strip('"'), columns,
                    primary_key="dataset_index")
    db.insert_rows(TABLE.strip('"'), [name for name, _type in columns],
                   [row[:scatter] + (row[scatter] * 3,) + row[scatter + 1:]
                    for row in rows[::2]])
    db.commit()


def unchanged(exp, importer):
    pass


@pytest.mark.parametrize("backend", DIFF_BACKENDS)
@pytest.mark.parametrize("change", [import_matching, delete_run,
                                    add_variable, drop_run_table],
                         ids=lambda change: change.__name__)
def test_one_change_after_warm_queries(backend, change):
    exp, importer = warmed(backend)
    expected = reference(backend, change)
    if change is not add_variable:
        assert expected != reference(backend, unchanged)
    change(exp, importer)
    assert_cold_rows(exp, expected, f"{backend} {change.__name__}")


@pytest.mark.parametrize("backend", DIFF_BACKENDS)
def test_insert_rolled_back_then_committed(backend):
    """A query inside the writer's transaction sees its row, and the
    rollback takes it away again."""
    exp, _ = warmed(backend)
    inserted = reference(backend, insert_row)
    untouched = reference(backend, unchanged)
    assert inserted != untouched
    db = exp.store.db
    db.begin()
    db.execute(INSERT)
    assert_cold_rows(exp, inserted, f"{backend} uncommitted insert")
    db.rollback()
    assert_cold_rows(exp, untouched, f"{backend} rolled back")
    insert_row(exp, None)
    assert_cold_rows(exp, inserted, f"{backend} committed insert")


@pytest.mark.parametrize("backend", DIFF_BACKENDS)
def test_drop_and_create_of_a_run_table(backend):
    exp, importer = warmed(backend)
    expected = reference(backend, recreate_run_table)
    assert expected != reference(backend, unchanged)
    recreate_run_table(exp, importer)
    assert_cold_rows(exp, expected, f"{backend} recreated")
