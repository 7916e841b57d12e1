"""E9 — Theorem 5.2: closed-form ε maximality for linear inequalities.

Shape claims: for random satisfied atoms, (a) the ε-orthotope is
homogeneous, (b) ε is maximal (growing it 5% breaks a corner), and (c)
both the b = 0 and quadratic branches are exercised.
"""

from __future__ import annotations

import math
import random

from repro.algebra.expressions import col, lit
from repro.core import EPS_CAP, Orthotope, epsilon_for_predicate


def _random_case(rng: random.Random):
    k = rng.randint(1, 4)
    names = [f"x{i}" for i in range(k)]
    coeffs = {n: rng.uniform(-2, 2) for n in names}
    point = {n: rng.uniform(0.05, 1.5) for n in names}
    b = rng.uniform(-1.5, 1.5)
    term = lit(0.0)
    for n in names:
        term = term + lit(coeffs[n]) * col(n)
    return (term >= lit(b)), point


def test_homogeneity_and_maximality_randomized():
    rng = random.Random(2024)
    checked_quadratic = 0
    for _ in range(500):
        pred, point = _random_case(rng)
        truth = pred.evaluate(point)
        eps = epsilon_for_predicate(pred, point)
        if eps == 0 or math.isinf(eps):
            continue
        inner = Orthotope(point, min(eps, EPS_CAP) * 0.999)
        for corner in inner.corners():
            assert pred.evaluate(corner) == truth
        if eps < 0.95:
            outer = Orthotope(point, min(eps * 1.05, EPS_CAP))
            assert any(pred.evaluate(c) != truth for c in outer.corners())
        checked_quadratic += 1
    assert checked_quadratic > 200


def test_b_zero_branch_value():
    pred = (col("x") - col("y")) >= lit(0)
    eps = epsilon_for_predicate(pred, {"x": 0.75, "y": 0.25})
    assert eps == (0.75 - 0.25) / (0.75 + 0.25)
