"""Unit tests for variables and variable sets (Section 3 / 3.1)."""

import pytest

from repro.core import (DataType, DataTypeError, DefinitionError,
                        Occurrence, Parameter, Result, Unit, Variable,
                        VariableSet)


class TestVariableConstruction:
    def test_defaults(self):
        v = Parameter("x")
        assert v.datatype is DataType.STRING
        assert v.occurrence is Occurrence.ONCE
        assert not v.is_result

    def test_result_flag(self):
        assert Result("y").is_result
        assert Result("y").kind == "result"
        assert Parameter("x").kind == "parameter"

    def test_string_datatype_accepted(self):
        v = Parameter("x", datatype="integer")
        assert v.datatype is DataType.INTEGER

    def test_string_occurrence_accepted(self):
        v = Parameter("x", occurrence="multiple")
        assert v.occurrence is Occurrence.MULTIPLE

    def test_invalid_name_rejected(self):
        with pytest.raises(DefinitionError):
            Parameter("2fast")
        with pytest.raises(DefinitionError):
            Parameter("has space")
        with pytest.raises(DefinitionError):
            Parameter("semi;colon")

    def test_keyword_name_rejected(self):
        with pytest.raises(DefinitionError):
            Parameter("class")

    def test_ordinal_prefix_reserved(self):
        # the query engine projects pb_ord__N row-order columns next to
        # user columns; the namespace is closed where names enter
        with pytest.raises(DefinitionError, match="reserved pb_ord__"):
            Parameter("pb_ord__0")
        with pytest.raises(DefinitionError, match="reserved pb_ord__"):
            Result("pb_ord__bw")
        Parameter("pb_ord_0")  # only the exact prefix is reserved

    def test_default_is_coerced(self):
        v = Parameter("x", datatype="integer", default="42")
        assert v.default == 42

    def test_valid_values_coerced(self):
        v = Parameter("x", datatype="integer",
                      valid_values=("1", "2"))
        assert v.valid_values == (1, 2)


class TestParsingAndValidation:
    def test_parse_uses_datatype(self):
        v = Parameter("n", datatype="integer")
        assert v.parse(" 256 MBytes") == 256

    def test_whitelist_accepts(self):
        v = Parameter("fs", valid_values=("ufs", "nfs"))
        assert v.parse("ufs") == "ufs"

    def test_whitelist_falls_back_to_default(self):
        # Fig. 5: invalid content rejected, default 'unknown' applies
        v = Parameter("fs", valid_values=("ufs", "nfs"),
                      default="unknown")
        assert v.parse("xfs") == "unknown"

    def test_whitelist_without_default_raises(self):
        v = Parameter("fs", valid_values=("ufs", "nfs"))
        with pytest.raises(DataTypeError, match="not valid"):
            v.parse("xfs")

    def test_coerce_validates(self):
        v = Parameter("n", datatype="integer", valid_values=(1, 2),
                      default=1)
        assert v.coerce(7) == 1

    def test_axis_label_with_unit(self):
        v = Result("bw", datatype="float", unit=Unit.parse("MB/s"),
                   synopsis="bandwidth")
        assert v.axis_label() == "bandwidth [MB/s]"

    def test_axis_label_without_unit(self):
        assert Parameter("x").axis_label() == "x"


class TestVariableSet:
    def make(self):
        return VariableSet([
            Parameter("a"), Parameter("b", occurrence="multiple"),
            Result("r", occurrence="multiple"),
            Result("s"),
        ])

    def test_iteration_order_preserved(self):
        vs = self.make()
        assert vs.names() == ["a", "b", "r", "s"]

    def test_lookup(self):
        vs = self.make()
        assert vs["a"].name == "a"
        assert "a" in vs and "zz" not in vs

    def test_missing_lookup_raises(self):
        with pytest.raises(DefinitionError, match="no variable"):
            self.make()["zz"]

    def test_duplicate_rejected(self):
        vs = self.make()
        with pytest.raises(DefinitionError, match="duplicate"):
            vs.add(Parameter("a"))

    def test_partitions(self):
        vs = self.make()
        assert [v.name for v in vs.parameters] == ["a", "b"]
        assert [v.name for v in vs.results] == ["r", "s"]
        assert [v.name for v in vs.once()] == ["a", "s"]
        assert [v.name for v in vs.multiple()] == ["b", "r"]

    def test_remove(self):
        vs = self.make()
        removed = vs.remove("a")
        assert removed.name == "a"
        assert "a" not in vs
        with pytest.raises(DefinitionError):
            vs.remove("a")

    def test_replace(self):
        vs = self.make()
        old = vs.replace(Parameter("a", synopsis="new synopsis"))
        assert old.synopsis == ""
        assert vs["a"].synopsis == "new synopsis"

    def test_len(self):
        assert len(self.make()) == 4

    def test_equality(self):
        assert self.make() == self.make()
        other = self.make()
        other.remove("a")
        assert self.make() != other


class TestOccurrence:
    def test_from_name(self):
        assert Occurrence.from_name("once") is Occurrence.ONCE
        assert Occurrence.from_name("MULTIPLE") is Occurrence.MULTIPLE

    def test_unknown_rejected(self):
        with pytest.raises(DefinitionError):
            Occurrence.from_name("sometimes")
