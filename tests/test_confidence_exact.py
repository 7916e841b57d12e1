"""Tests for exact confidence computation (the #P subprocedure of Thm 3.4)."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.confidence import (
    Dnf,
    EnumerationLimitError,
    ExactDecomposition,
    ExactEnumeration,
    is_exact_solver,
    probability_by_decomposition,
    probability_by_enumeration,
)
from repro.generators.hard import bipartite_2dnf, chain_dnf
from repro.urel.conditions import Condition
from repro.urel.variables import VariableTable


def _bool_table(n: int, p: Fraction = Fraction(1, 2)) -> VariableTable:
    w = VariableTable()
    for i in range(n):
        w.add(("x", i), {1: p, 0: 1 - p})
    return w


class TestDnf:
    def test_deduplication_keeps_first_order(self):
        w = _bool_table(2)
        c1 = Condition({("x", 0): 1})
        c2 = Condition({("x", 1): 1})
        d = Dnf([c1, c2, c1], w)
        assert d.members == (c1, c2)
        assert d.size == 2

    def test_total_weight_m(self):
        w = _bool_table(2, Fraction(1, 4))
        d = Dnf([Condition({("x", 0): 1}), Condition({("x", 1): 1})], w)
        assert d.total_weight == Fraction(1, 2)

    def test_trivially_true_and_empty(self):
        w = _bool_table(1)
        assert Dnf([], w).is_empty
        assert Dnf([Condition()], w).is_trivially_true

    def test_evaluate_world(self):
        w = _bool_table(2)
        d = Dnf([Condition({("x", 0): 1, ("x", 1): 1})], w)
        assert d.evaluate({("x", 0): 1, ("x", 1): 1})
        assert not d.evaluate({("x", 0): 1, ("x", 1): 0})


class TestKnownValues:
    def test_single_variable(self):
        w = _bool_table(1, Fraction(1, 3))
        d = Dnf([Condition({("x", 0): 1})], w)
        assert probability_by_enumeration(d) == Fraction(1, 3)
        assert probability_by_decomposition(d) == Fraction(1, 3)

    def test_independent_disjunction(self):
        """Pr[X ∨ Y] = 1 − (1−p)(1−q) for independent clauses."""
        w = _bool_table(2, Fraction(1, 2))
        d = Dnf([Condition({("x", 0): 1}), Condition({("x", 1): 1})], w)
        assert probability_by_decomposition(d) == Fraction(3, 4)

    def test_conjunction_clause(self):
        w = _bool_table(2, Fraction(1, 2))
        d = Dnf([Condition({("x", 0): 1, ("x", 1): 1})], w)
        assert probability_by_decomposition(d) == Fraction(1, 4)

    def test_overlapping_clauses_inclusion_exclusion(self):
        """Pr[(X∧Y) ∨ (Y∧Z)] = 1/4 + 1/4 − 1/8 = 3/8 at p = 1/2."""
        w = _bool_table(3)
        d = Dnf(
            [
                Condition({("x", 0): 1, ("x", 1): 1}),
                Condition({("x", 1): 1, ("x", 2): 1}),
            ],
            w,
        )
        assert probability_by_decomposition(d) == Fraction(3, 8)
        assert probability_by_enumeration(d) == Fraction(3, 8)

    def test_empty_and_trivial(self):
        w = _bool_table(1)
        assert probability_by_decomposition(Dnf([], w)) == 0
        assert probability_by_decomposition(Dnf([Condition()], w)) == 1

    def test_non_boolean_domains(self):
        w = VariableTable()
        w.add("C", {"a": Fraction(1, 6), "b": Fraction(2, 6), "c": Fraction(3, 6)})
        d = Dnf([Condition({"C": "a"}), Condition({"C": "c"})], w)
        assert probability_by_decomposition(d) == Fraction(4, 6)

    def test_contradictory_clause_contributes_nothing(self):
        w = _bool_table(1)
        d = Dnf([Condition({("x", 0): 99})], w)  # value outside the domain
        assert probability_by_decomposition(d) == 0

    def test_dispatch(self):
        """The solver is chosen by strategy object (an unknown *name* is
        ``resolve_strategy``'s error, tested in test_engine_api)."""
        w = _bool_table(1)
        d = Dnf([Condition({("x", 0): 1})], w)
        solvers = [ExactEnumeration(), ExactDecomposition()]
        reports = [solver.compute(d, None) for solver in solvers]
        assert [r.value for r in reports] == [Fraction(1, 2)] * 2
        assert [r.method for r in reports] == ["exact-enumeration", "exact-decomposition"]
        assert all(r.exact for r in reports) and all(map(is_exact_solver, solvers))

    def test_enumeration_limit(self):
        d = chain_dnf(25)
        with pytest.raises(EnumerationLimitError, match="limit"):
            probability_by_enumeration(d, max_assignments=1000)


class TestSolversAgree:
    @pytest.mark.parametrize("seed", range(10))
    def test_bipartite_instances(self, seed):
        d = bipartite_2dnf(4, 4, edge_probability=0.5, rng=seed)
        assert probability_by_decomposition(d) == probability_by_enumeration(d)

    @pytest.mark.parametrize("length", [1, 2, 5, 9])
    def test_chain_instances(self, length):
        d = chain_dnf(length)
        assert probability_by_decomposition(d) == probability_by_enumeration(d)

    @given(st.data())
    @settings(max_examples=40)
    def test_random_dnfs(self, data):
        n_vars = data.draw(st.integers(1, 5), label="n_vars")
        w = _bool_table(n_vars, Fraction(1, 3))
        n_clauses = data.draw(st.integers(0, 5), label="n_clauses")
        clauses = []
        for _ in range(n_clauses):
            size = data.draw(st.integers(1, min(3, n_vars)))
            variables = data.draw(
                st.lists(
                    st.integers(0, n_vars - 1),
                    min_size=size,
                    max_size=size,
                    unique=True,
                )
            )
            clauses.append(
                Condition({("x", v): data.draw(st.integers(0, 1)) for v in variables})
            )
        d = Dnf(clauses, w)
        assert probability_by_decomposition(d) == probability_by_enumeration(d)

    def test_chain_probability_closed_form(self):
        """Chains of disjoint pairs: 1 − (1 − p²)^n."""
        p = Fraction(1, 2)
        for n in (1, 2, 4):
            d = chain_dnf(n, overlap=False)
            expected = 1 - (1 - p * p) ** n
            assert probability_by_decomposition(d) == expected
