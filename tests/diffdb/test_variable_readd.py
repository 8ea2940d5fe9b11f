"""A variable removed and added again after warm fused queries.

Removing a result and adding it back under the same name leaves the
fused fragments' text as it was, so the columnar engine plans the same
``UNION ALL`` again.  The re-added column is NULL in every run: the
rows must be those of a never-queried experiment with the same change,
not the values the warm queries read before.
"""

from __future__ import annotations

import pytest

from repro.testing import DIFF_BACKENDS
from tests.diffdb.test_warm_invalidation import (
    assert_cold_rows, reference, unchanged, warmed)

pytestmark = [pytest.mark.diffdb, pytest.mark.pushdown]


def readd_variable(exp, importer):
    """``B_scatter``, which fig8 and stddev read, goes and comes back
    with no row written in between."""
    var = exp.variables["B_scatter"]
    exp.remove_variable(var.name)
    exp.add_variable(var)


@pytest.mark.parametrize("backend", DIFF_BACKENDS)
def test_removed_and_readded_variable(backend):
    exp, importer = warmed(backend)
    expected = reference(backend, readd_variable)
    assert expected != reference(backend, unchanged)
    readd_variable(exp, importer)
    assert_cold_rows(exp, expected, f"{backend} re-added B_scatter")
