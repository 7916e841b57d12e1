"""The corner-point method for read-once algebraic predicates (Theorem 5.5).

Theorem 5.5: for φ(x₁,…,x_k) = (f(x₁,…,x_k) ≥ 0) with f an algebraic
expression over +, −, ·, / in which *each variable occurs exactly once*,
if all 2^k corner points of the orthotope

    [ p̂₁/(1+ε), p̂₁/(1−ε) ] × … × [ p̂_k/(1+ε), p̂_k/(1−ε) ]

agree with (p̂₁,…,p̂_k) on φ, then so do all interior points.  The proof
observes that fixing all variables but one reduces f to ``a·xᵢ + b`` or
``a/xᵢ + b``, both monotone — so truth is monotone along every axis.

This yields a general ε-maximization by *binary search* on ε ∈ (0, 1),
checking the 2^k corners at each step ("Thus, ε can be maximized by
binary search in the interval (0,1)…").  The paper's trick for reusing
a value twice — approximate it twice independently and give each copy
its own variable — is :func:`duplicate_variables`.

We extend the corner test soundly to *Boolean combinations* in NNF of
read-once atoms, provided each variable occurs once in the whole
formula: the formula is then monotone in each atom and each atom
monotone in each variable, so axis-monotonicity still holds.

Caveat inherited from the theorem: monotonicity of ``a/xᵢ + b`` needs
the interval not to straddle 0.  Confidences are positive, and for
p̂ᵢ > 0 the orthotope stays in (0, ∞); :func:`epsilon_by_corners`
rejects centers ≤ 0 under a divisor for safety.

Occurrences are counted by `repro.algebra.expressions.attribute_occurrences`
and variables duplicated by ``map_attributes`` — handler tables over the
shared fold — so the read-once precondition is checked on *every* node:
an expression class the tables do not know is a ``TypeError``, not a
subtree whose variables go uncounted.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping

from repro.algebra.expressions import (
    NODE_TYPES,
    Arith,
    Attr,
    BoolConst,
    BoolExpr,
    Term,
    attribute_occurrences,
    attributes,
    map_attributes,
    to_nnf,
)
from repro.algebra.tree import fold
from repro.core.intervals import Orthotope

__all__ = [
    "ReadOnceError",
    "is_read_once",
    "check_read_once",
    "corners_agree",
    "epsilon_by_corners",
    "duplicate_variables",
]


class ReadOnceError(ValueError):
    """Raised when a predicate is not read-once (some variable repeats)."""


def _repeated(predicate: BoolExpr | Term) -> list[str]:
    counts = Counter(attribute_occurrences(predicate))
    return sorted(name for name, n in counts.items() if n > 1)


def is_read_once(predicate: BoolExpr | Term) -> bool:
    """True iff every variable occurs at most once in the whole predicate."""
    return not _repeated(predicate)


def check_read_once(predicate: BoolExpr | Term) -> None:
    """Raise :class:`ReadOnceError` naming the offending variables."""
    repeated = _repeated(predicate)
    if repeated:
        raise ReadOnceError(
            f"variables occur more than once: {repeated}; approximate each "
            f"occurrence independently (duplicate_variables) as in Section 5"
        )


def duplicate_variables(
    predicate: BoolExpr, point: Mapping[str, float] | None = None
):
    """Rewrite a repeated-variable predicate into a read-once one.

    "Rather than using the same unreliable value twice in a formula, we
    can instead approximate the same value twice (yielding a value with
    an independent error) and represent the two approximation results by
    two different variables" (Section 5).

    Returns ``(new_predicate, new_point, aliases)`` where ``aliases`` maps
    each fresh variable name to the original it copies; callers must
    obtain an *independent* estimate for every alias.  ``new_point`` is
    ``None`` when no ``point`` is supplied.
    """
    repeated = set(_repeated(predicate))
    aliases: dict[str, str] = {}

    def fresh_copy(attr: Attr) -> Attr:
        if attr.name not in repeated:
            return attr
        fresh = f"{attr.name}__dup{len(aliases)}"
        aliases[fresh] = attr.name
        return Attr(fresh)

    new_predicate = map_attributes(predicate, fresh_copy)
    if point is None:
        return new_predicate, None, aliases
    new_point = dict(point)
    for fresh, original in aliases.items():
        new_point[fresh] = point[original]
    return new_predicate, new_point, aliases


_VARIABLE_DIVISOR = {
    **dict.fromkeys(NODE_TYPES, lambda node, *parts: any(parts)),
    Arith: lambda node, left, right: (
        left or right or (node.op == "/" and bool(attributes(node.right)))
    ),
}


def corners_agree(
    predicate: BoolExpr, point: Mapping[str, float], eps: float
) -> bool:
    """Do all 2^k corner points of the ε-orthotope agree with the point on φ?"""
    names = attributes(predicate)
    center = {n: float(point[n]) for n in names}
    reference = predicate.evaluate(point)
    box = Orthotope(center, eps)
    return all(predicate.evaluate(corner) == reference for corner in box.corners())


def epsilon_by_corners(
    predicate: BoolExpr,
    point: Mapping[str, float],
    tolerance: float = 1e-9,
    max_iterations: int = 80,
    eps_hi: float = 1.0 - 1e-9,
) -> float:
    """Maximize ε by binary search with the Theorem 5.5 corner test.

    Requires the predicate to be read-once (raises otherwise).  Returns a
    certified lower bound on the maximal homogeneous ε, within
    ``tolerance`` of it; returns ``eps_hi`` outright when even the widest
    admissible orthotope is homogeneous, and 0.0 when no positive ε
    passes (the singular case).
    """
    nnf = to_nnf(predicate)
    check_read_once(nnf)
    if isinstance(nnf, BoolConst):
        return math.inf
    names = attributes(nnf)
    if fold(nnf, _VARIABLE_DIVISOR, "epsilon_by_corners"):
        for n in names:
            if float(point[n]) <= 0.0:
                raise ValueError(
                    f"corner method needs positive approximated values under "
                    f"division; {n} = {point[n]}"
                )
    if corners_agree(nnf, point, eps_hi):
        return eps_hi
    lo, hi = 0.0, eps_hi  # invariant: corners agree at lo, disagree at hi
    if not corners_agree(nnf, point, 0.0):
        return 0.0
    for _ in range(max_iterations):
        if hi - lo <= tolerance:
            break
        mid = (lo + hi) / 2.0
        if corners_agree(nnf, point, mid):
            lo = mid
        else:
            hi = mid
    return lo
