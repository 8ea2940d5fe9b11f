"""The meta-experiment and the sentinel's baselines experiment share
one span schema; building both from it must not change what they
define.  The golden files hold both control files as they were before
the schema was shared, and are compared as parsed objects."""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.expr import Expression
from repro.sentinel import assets
from repro.workloads import obsmeta
from repro.xmlio import parse_experiment_xml, parse_input_xml

GOLDEN = pathlib.Path(__file__).parent / "golden"


def shape(obj):
    """A comparable nested form of a parsed control file."""
    if isinstance(obj, (str, int, float, bool, type(None))):
        return obj
    if isinstance(obj, re.Pattern):
        return ("re", obj.pattern, obj.flags)
    if isinstance(obj, Expression):
        return ("expr", obj.source)
    if isinstance(obj, (list, tuple)):
        return [shape(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(shape(x) for x in obj)
    if isinstance(obj, dict):
        return {k: shape(v) for k, v in obj.items()}
    state = getattr(obj, "__dict__", None)
    if state is None:
        state = {name: getattr(obj, name) for name in obj.__slots__}
    return (type(obj).__name__, shape(state))


@pytest.mark.parametrize("module,prefix", [(obsmeta, "obsmeta"),
                                           (assets, "sentinel")])
class TestSharedSpanSchema:
    def test_experiment_definition_unchanged(self, module, prefix):
        golden = (GOLDEN / f"{prefix}_experiment.xml").read_text()
        assert (parse_experiment_xml(module.experiment_xml())
                == parse_experiment_xml(golden))

    def test_input_description_unchanged(self, module, prefix):
        golden = (GOLDEN / f"{prefix}_input.xml").read_text()
        assert (shape(parse_input_xml(module.input_xml()))
                == shape(parse_input_xml(golden)))


def test_sentinel_adds_bytes_to_the_meta_schema():
    meta = parse_experiment_xml(obsmeta.experiment_xml()).variables
    sentinel = parse_experiment_xml(assets.experiment_xml()).variables
    names = {v.name for v in sentinel} - {v.name for v in meta}
    assert names == {"baseline", "workload", "sample", "captured",
                     "bytes"}
