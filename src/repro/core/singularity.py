"""ε₀-singularities (Definition 5.6) and their detection.

A point (p₁,…,p_k) is an *ε₀-singularity* of predicate φ if some point
(x₁,…,x_k) with |pᵢ − xᵢ| ≤ ε₀·pᵢ for all i disagrees with it on φ.  At
singular points predicates cannot be approximated no matter how
accurately the values are refined; the canonical example is the tuple
*certainty* test ``confidence = 1`` (Example 5.7) — an approximation can
rule out p < 1 but can never certify p = 1.

For linear predicates the singularity radius has a closed form: the
box [pᵢ(1−ε), pᵢ(1+ε)] first meets the hyperplane Σaᵢxᵢ = b of a
satisfied atom at

    ε* = (α − b) / β        (α = Σaᵢpᵢ,  β = Σ|aᵢpᵢ|),

because the extreme deviation of Σaᵢxᵢ over the box is exactly ε·β.
Boolean combinations use `repro.core.linear.min_max_radius`, the one
truth-oriented min/max rule, with this radius per atom.  For non-linear
read-once predicates a corner check over the (closed, multiplicative)
box decides singularity numerically.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import product as iter_product

from repro.algebra.expressions import BoolExpr, Cmp, attributes
from repro.core.linear import atom_margin, min_max_radius

__all__ = [
    "singularity_radius",
    "is_singularity",
    "is_singularity_by_corners",
]


def _atom_singularity_radius(atom: Cmp, point: Mapping[str, object]) -> float:
    """Radius at which the closed multiplicative box reaches the atom's boundary."""
    _coeffs, b, alpha, beta = atom_margin(atom, point)
    if beta == 0:
        return math.inf  # constant atom — never flips
    return float(abs(alpha - b)) / float(beta)


def singularity_radius(predicate: BoolExpr, point: Mapping[str, object]) -> float:
    """Distance (in relative box radius) from ``point`` to the nearest flip.

    ``point`` is an ε₀-singularity of the predicate iff
    ``singularity_radius(predicate, point) <= eps0`` (up to the boundary
    convention for weak/strict atoms, which has measure zero).
    """
    return min_max_radius(predicate, point, _atom_singularity_radius)[1]


def is_singularity(
    predicate: BoolExpr, point: Mapping[str, object], eps0: float
) -> bool:
    """Definition 5.6 for linear predicates, via the closed-form radius."""
    if eps0 < 0:
        raise ValueError(f"eps0 must be non-negative, got {eps0}")
    return singularity_radius(predicate, point) <= eps0


def is_singularity_by_corners(
    predicate: BoolExpr, point: Mapping[str, object], eps0: float
) -> bool:
    """Numeric Definition 5.6 check on the corners of the closed box.

    Valid for read-once predicates by the Theorem 5.5 monotonicity
    argument (the extreme of each axis is attained at an endpoint); also
    usable as a *sound* singularity witness for arbitrary predicates
    (corner disagreement always certifies a singularity).
    """
    if eps0 < 0:
        raise ValueError(f"eps0 must be non-negative, got {eps0}")
    names = sorted(attributes(predicate))
    reference = predicate.evaluate(point)
    axes = []
    for n in names:
        p = float(point[n])
        lo, hi = p * (1 - eps0), p * (1 + eps0)
        axes.append((lo,) if lo == hi else (lo, hi))
    for values in iter_product(*axes):
        if predicate.evaluate(dict(zip(names, values))) != reference:
            return True
    return False
