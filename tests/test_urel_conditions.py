"""Tests for conditions (partial functions) and the W variable table."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.urel.conditions import TOP, Condition
from repro.urel.variables import VariableError, VariableTable


class TestCondition:
    def test_empty_is_top(self):
        assert TOP.is_empty
        assert not Condition({"X": 1}).is_empty

    def test_contradictory_pairs_rejected(self):
        with pytest.raises(ValueError, match="two values"):
            Condition([("X", 1), ("X", 2)])

    def test_duplicate_pairs_collapse(self):
        assert Condition([("X", 1), ("X", 1)]) == Condition({"X": 1})

    def test_equality_and_hash(self):
        a = Condition({"X": 1, "Y": 2})
        b = Condition([("Y", 2), ("X", 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_consistency(self):
        a = Condition({"X": 1})
        b = Condition({"X": 1, "Y": 2})
        c = Condition({"X": 2})
        assert a.consistent_with(b)
        assert b.consistent_with(a)
        assert not a.consistent_with(c)
        assert TOP.consistent_with(c)

    def test_union_merges(self):
        a = Condition({"X": 1})
        b = Condition({"Y": 2})
        assert a.union(b) == Condition({"X": 1, "Y": 2})

    def test_union_inconsistent_is_none(self):
        assert Condition({"X": 1}).union(Condition({"X": 2})) is None

    def test_union_idempotent(self):
        a = Condition({"X": 1})
        assert a.union(a) == a

    def test_assign_extends(self):
        a = Condition({"X": 1})
        assert a.assign("Y", 2) == Condition({"X": 1, "Y": 2})
        assert a.assign("X", 1) == a
        assert a.assign("X", 2) is None

    def test_restricted_to(self):
        a = Condition({"X": 1, "Y": 2})
        assert a.restricted_to({"X"}) == Condition({"X": 1})
        assert a.restricted_to(()) == TOP

    def test_evaluate_total_assignment(self):
        a = Condition({"X": 1, "Y": 2})
        assert a.evaluate({"X": 1, "Y": 2, "Z": 9})
        assert not a.evaluate({"X": 1, "Y": 3})
        assert not a.evaluate({"X": 1})  # undefined ≠ matching
        assert TOP.evaluate({})

    def test_variables(self):
        assert Condition({"X": 1, "Y": 2}).variables == {"X", "Y"}

    @given(
        st.dictionaries(st.sampled_from("XYZ"), st.integers(0, 2), max_size=3),
        st.dictionaries(st.sampled_from("XYZ"), st.integers(0, 2), max_size=3),
    )
    def test_union_semantics(self, a_map, b_map):
        """f ∪ g defined iff consistent, and then contains both."""
        a, b = Condition(a_map), Condition(b_map)
        merged = a.union(b)
        consistent = all(b_map.get(k, v) == v for k, v in a_map.items())
        assert (merged is not None) == consistent
        if merged is not None:
            for k, v in a_map.items():
                assert merged[k] == v
            for k, v in b_map.items():
                assert merged[k] == v


class TestVariableTable:
    def test_add_and_lookup(self):
        w = VariableTable()
        w.add("X", {1: Fraction(1, 3), 0: Fraction(2, 3)})
        assert w.prob("X", 1) == Fraction(1, 3)
        assert w.prob("X", 7) == 0
        assert set(w.domain("X")) == {0, 1}

    def test_distribution_must_sum_to_one(self):
        w = VariableTable()
        with pytest.raises(VariableError, match="sums"):
            w.add("X", {1: Fraction(1, 3)})

    def test_zero_probability_rejected(self):
        w = VariableTable()
        with pytest.raises(VariableError, match="> 0"):
            w.add("X", {1: 0, 0: 1})

    def test_redefinition_rejected(self):
        w = VariableTable()
        w.add("X", {1: 1})
        with pytest.raises(VariableError, match="already"):
            w.add("X", {1: 1})

    def test_ensure_idempotent_and_strict(self):
        w = VariableTable()
        w.ensure("X", {1: Fraction(1, 2), 0: Fraction(1, 2)})
        w.ensure("X", {1: Fraction(1, 2), 0: Fraction(1, 2)})
        with pytest.raises(VariableError, match="redefined"):
            w.ensure("X", {1: Fraction(1, 3), 0: Fraction(2, 3)})

    def test_unknown_variable(self):
        w = VariableTable()
        with pytest.raises(VariableError, match="unknown"):
            w.domain("X")

    def test_weight_is_equation_2(self):
        w = VariableTable()
        w.add("X", {1: Fraction(1, 3), 0: Fraction(2, 3)})
        w.add("Y", {1: Fraction(1, 4), 0: Fraction(3, 4)})
        f = Condition({"X": 1, "Y": 0})
        assert w.weight(f) == Fraction(1, 3) * Fraction(3, 4)
        assert w.weight(TOP) == 1

    def test_weight_of_impossible_value_is_zero(self):
        w = VariableTable()
        w.add("X", {1: 1})
        assert w.weight(Condition({"X": 99})) == 0

    def test_sampling_respects_distribution(self, rng):
        w = VariableTable()
        w.add("X", {1: 0.25, 0: 0.75})
        draws = [w.sample_value("X", rng) for _ in range(4000)]
        share = sum(draws) / len(draws)
        assert abs(share - 0.25) < 0.05

    def test_copy_is_independent(self):
        w = VariableTable()
        w.add("X", {1: 1})
        clone = w.copy()
        clone.add("Y", {1: 1})
        assert "Y" not in w
        assert "Y" in clone

    def test_as_relation_shape(self):
        w = VariableTable()
        w.add(("rk", 1, ()), {("fair",): Fraction(2, 3), ("2h",): Fraction(1, 3)})
        rel = w.as_relation()
        assert rel.columns == ("Var", "Dom", "P")
        assert len(rel) == 2
