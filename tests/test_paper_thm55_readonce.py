"""E10 — Theorem 5.5: the corner-point method for read-once predicates.

Shape claims: (a) the binary search lands on the Theorem 5.2 value for
linear atoms (agreement of the two methods), (b) it handles genuinely
non-linear read-once predicates (products, ratios), and (c) its cost
grows with 2^k corners per step — the price of generality over the
closed form.
"""

from __future__ import annotations

import pytest

from repro.algebra.expressions import col, lit
from repro.core import EPS_CAP, Orthotope, epsilon_by_corners, epsilon_for_predicate


def test_agreement_with_closed_form_on_linear():
    cases = [
        ((col("x") + col("y")) >= lit(0.6), {"x": 0.5, "y": 0.5}),
        ((col("x") - col("y")) >= lit(0.5), {"x": 1.2, "y": 0.2}),
        ((col("x") - lit(0.5) * col("y")) >= lit(0), {"x": 0.5, "y": 0.5}),
    ]
    for pred, point in cases:
        closed = min(epsilon_for_predicate(pred, point), EPS_CAP)
        searched = epsilon_by_corners(pred, point)
        assert searched == pytest.approx(closed, abs=1e-6)


def test_nonlinear_ratio_and_product():
    ratio = (col("x") / col("y")) >= lit(0.5)
    assert epsilon_by_corners(ratio, {"x": 0.5, "y": 0.5}) == pytest.approx(1 / 3, abs=1e-6)
    product = (col("x") * col("y")) >= lit(0.2)
    eps = epsilon_by_corners(product, {"x": 0.8, "y": 0.5})
    assert 0 < eps < 1


def test_cost_grows_with_arity(monkeypatch):
    """2^k corners per probe: k = 10 visits ≫ k = 2 (shape, not constant)."""
    visited = []
    corners = Orthotope.corners

    def counting_corners(self):
        for corner in corners(self):
            visited.append(1)
            yield corner

    monkeypatch.setattr(Orthotope, "corners", counting_corners)

    def build(k):
        term = lit(0.0)
        for i in range(k):
            term = term + col(f"x{i}")
        return term >= lit(0.1), {f"x{i}": 0.5 for i in range(k)}

    work = {}
    for k in (2, 10):
        pred, point = build(k)
        visited.clear()
        epsilon_by_corners(pred, point)
        work[k] = len(visited)
    assert work[10] > 3 * work[2]
