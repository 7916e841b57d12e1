"""E11 — Figure 3 / Theorem 5.8: the adaptive predicate approximator.

Shape claims: (a) decisions off singularities are correct with observed
error ≤ δ; (b) the round count grows as the threshold approaches the
true value (effort adapts to ε_ψ); (c) at an exact singularity the
algorithm still terminates, clamped at ε₀, and flags the suspicion.
``tests/test_statistical_guarantees.py`` replicates (a) and (c) over
hundreds of seeds.
"""

from __future__ import annotations

from repro.algebra.expressions import col, lit
from repro.confidence import probability_by_decomposition
from repro.core import approximate_predicate
from repro.generators.hard import chain_dnf

DNF = chain_dnf(5)
TRUTH = float(probability_by_decomposition(DNF))


def test_error_rate_within_delta():
    delta = 0.1
    wrong = 0
    runs = 40
    for seed in range(runs):
        decision = approximate_predicate(
            col("p") >= lit(TRUTH * 0.8), {"p": DNF}, 0.02, delta, rng=seed
        )
        if decision.value is not True:
            wrong += 1
    assert wrong / runs <= delta


def test_rounds_grow_towards_boundary():
    rounds = []
    for factor in (0.3, 0.6, 0.85, 0.95):
        decision = approximate_predicate(
            col("p") >= lit(TRUTH * factor), {"p": DNF}, 0.01, 0.1, rng=3
        )
        rounds.append(decision.rounds)
    assert rounds == sorted(rounds)
    assert rounds[-1] > 4 * rounds[0]


def test_singularity_terminates_flagged():
    decision = approximate_predicate(col("p") >= lit(TRUTH), {"p": DNF}, 0.05, 0.1, rng=5)
    assert decision.suspected_singularity
    assert decision.eps == 0.05  # clamped at ε₀
