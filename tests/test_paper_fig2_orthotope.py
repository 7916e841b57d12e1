"""E8 — Example 5.4 / Figure 2: the maximal orthotope for x₁/x₂ ≥ 1/2.

Paper artifact: at (p̂₁, p̂₂) = (1/2, 1/2), ε = α/β = 1/3, the maximal
orthotope is [3/8, 3/4]², and it touches the hyperplane 2x₁ = x₂ at
(3/8, 3/4).  Also regenerates the ε *field* over a grid (the series a
plot of Figure 2 would be drawn from).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.algebra.expressions import col, lit
from repro.core import epsilon_for_predicate, relative_interval

PRED = (col("x1") - lit(Fraction(1, 2)) * col("x2")) >= lit(0)


def test_example_54_numbers():
    point = {"x1": Fraction(1, 2), "x2": Fraction(1, 2)}
    eps = epsilon_for_predicate(PRED, point)
    assert eps == pytest.approx(1 / 3)
    lo1, hi1 = relative_interval(0.5, eps)
    assert (lo1, hi1) == (pytest.approx(3 / 8), pytest.approx(3 / 4))
    # touching point (p̂₁/(1+ε), p̂₂/(1−ε)) = (3/8, 3/4) lies on 2x₁ = x₂:
    x = (0.5 / (1 + eps), 0.5 / (1 - eps))
    assert 2 * x[0] == pytest.approx(x[1])


def _eps_field(n: int = 20) -> list[tuple[float, float, float]]:
    field = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            x1, x2 = i / n, j / n
            field.append((x1, x2, epsilon_for_predicate(PRED, {"x1": x1, "x2": x2})))
    return field


def test_eps_field_shape():
    """ε vanishes on the hyperplane and grows with distance from it."""
    field = {(x1, x2): e for x1, x2, e in _eps_field()}
    # points on the hyperplane x1 = 0.5·x2 have ε = 0
    assert field[(0.2, 0.4)] == 0.0
    assert field[(0.45, 0.9)] == 0.0
    # ε increases moving away from the hyperplane at fixed x2
    row = [field[(i / 20, 1.0)] for i in range(11, 21)]
    assert all(a <= b + 1e-12 for a, b in zip(row, row[1:]))
