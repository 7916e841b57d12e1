"""E14 — Example 6.5 / Lemma 6.4: provenance-wide error accumulation.

Paper artifact: π_A over an unreliable relation with n tuples ⟨a, bᵢ⟩,
each wrong with probability µ, flips with probability 1 − (1−µ)ⁿ ≤ µ·n.
Regenerated two ways: (a) the accounting evaluator must report exactly
the Σµ union bound, growing linearly in n; (b) a direct simulation of
the flip probability must stay under the bound.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.builder import query, rel
from repro.algebra.expressions import col, lit
from repro.algebra.relations import Relation
from repro.core import ApproxQueryEvaluator
from repro.generators.tpdb import tuple_independent
from repro.provenance import evaluate_with_provenance


def _accounted_bound(n: int, rounds: int = 40, seed: int = 1):
    """Per-output-tuple bound reported by the Lemma 6.4 accounting."""
    rows = [((f"b{i % n}",), 0.5) for i in range(2 * n)]  # |F| = 2 per key
    db = tuple_independent("R", ("B",), rows)
    keep_all = rel("R").approx_select(col("P1") >= lit(0.0), groups=[["B"]])
    project_a = keep_all.project([(lit("a"), "A")])
    evaluator = ApproxQueryEvaluator(db, eps0=0.05, rounds=rounds, rng=seed)
    out = evaluator.evaluate(query(project_a))
    ((_, bound),) = list(out.mu.items())
    per_decision = [r.decision.error_bound for r in evaluator.decision_log]
    return bound, per_decision


def test_bound_is_sum_over_provenance_and_linear_in_n():
    bounds = {}
    for n in (2, 4, 8):
        bound, per_decision = _accounted_bound(n)
        assert bound == pytest.approx(min(1.0, sum(per_decision)))
        bounds[n] = bound
    assert bounds[4] > bounds[2]
    assert bounds[8] > bounds[4]
    # linearity (all decisions share the same per-decision bound here):
    assert bounds[8] == pytest.approx(4 * bounds[2], rel=0.35)


def test_true_flip_probability_below_union_bound():
    mu, n = 0.05, 10
    rng = random.Random(3)
    flips = 0
    runs = 4000
    for _ in range(runs):
        # With every tuple selected the worst wiring lets any single
        # membership flip change the output, so
        # Pr[flip] ≤ 1 − (1−µ)ⁿ ≤ µ·n.
        any_flip = any(rng.random() < mu for _ in range(n))
        flips += any_flip
    observed = flips / runs
    assert observed <= mu * n
    assert observed == pytest.approx(1 - (1 - mu) ** n, abs=0.02)


def test_provenance_trail_size_matches_n():
    n = 7
    db = {"R": Relation.from_rows(("A", "B"), [("a", i) for i in range(n)])}
    result = evaluate_with_provenance(rel("R").project(["A"]), db)
    assert result.trail_size(("a",)) == n
