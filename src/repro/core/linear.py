"""Maximal homogeneous ε for linear predicates (Theorem 5.2).

Given a predicate that is a Boolean combination of *linear* inequalities
and an approximated point (p̂₁, …, p̂_k), this module computes the largest
ε such that the whole Lemma 5.1 orthotope

    ( p̂₁/(1+ε), p̂₁/(1−ε) ) × … × ( p̂_k/(1+ε), p̂_k/(1−ε) )

agrees with the point on the predicate.  For a single satisfied atom
Σaᵢxᵢ ≥ b, Theorem 5.2 gives the closed form (α = Σaᵢp̂ᵢ, β = Σ|aᵢp̂ᵢ|):

    ε = α/β                                       if b = 0,
    ε = max( β/2b ± √(β² − 4b(α−b)) / 2b )        otherwise,

obtained by pushing the corner xᵢ = p̂ᵢ/(1 + sgn(aᵢp̂ᵢ)·ε) onto the
hyperplane.  Boolean combinations are handled by the paper's min/max
recursion after NNF, made total here in truth-oriented form:

* a node *true* at the point: ``And`` → min over children,
  ``Or`` → max over children that are true at the point;
* a node *false* at the point: ``And`` → max over children false at the
  point, ``Or`` → min over children.

(These coincide with the paper's ε_{φ∧ψ} = min, ε_{φ∨ψ} = max once
negations are pushed to the atoms, but also cover mixed-truth
disjunctions.)

Following Remark 5.3, a point lying exactly on a bounding hyperplane
yields ε = 0 (it cannot be separated — the singularity case), and
ε ≥ 1, which can legitimately come out of the quadratic, must be clamped
to a value just below 1 before use in Lemma 5.1 (:func:`clamp_epsilon`).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import partial

from repro.algebra.expressions import (
    And,
    Arith,
    Attr,
    BoolConst,
    BoolExpr,
    Cmp,
    Const,
    Not,
    Or,
    Term,
)
from repro.algebra.tree import fold

__all__ = [
    "NonLinearError",
    "affine_form",
    "is_linear",
    "atom_as_geq",
    "theorem_52_epsilon",
    "atom_margin",
    "atom_epsilon",
    "min_max_radius",
    "epsilon_for_predicate",
    "clamp_epsilon",
    "EPS_CAP",
]

EPS_CAP = 1.0 - 1e-9
"""Largest admissible ε (Remark 5.3: choose a value close to but below 1)."""


class NonLinearError(ValueError):
    """Raised when an expression is not affine in the unknowns."""


def affine_form(term: Term) -> tuple[dict[str, object], object]:
    """Decompose ``term`` as Σ aᵢ·xᵢ + c; raise :class:`NonLinearError` otherwise.

    Coefficients stay exact (int/Fraction) when the expression is exact.
    """
    return fold(term, _AFFINE, "affine_form")


def _affine_const(term: Const):
    if isinstance(term.value, str):
        raise NonLinearError(f"non-numeric constant {term.value!r} in arithmetic")
    return {}, term.value


def _affine_arith(term: Arith, left, right):
    (lcoeffs, lconst), (rcoeffs, rconst) = left, right
    if term.op == "+":
        return _merge(lcoeffs, rcoeffs, 1), lconst + rconst
    if term.op == "-":
        return _merge(lcoeffs, rcoeffs, -1), lconst - rconst
    if term.op == "*":
        if not lcoeffs:
            return {k: lconst * v for k, v in rcoeffs.items()}, lconst * rconst
        if not rcoeffs:
            return {k: v * rconst for k, v in lcoeffs.items()}, lconst * rconst
        raise NonLinearError("product of two variable-dependent terms is not linear")
    if rcoeffs:
        raise NonLinearError("division by a variable-dependent term is not linear")
    if rconst == 0:
        raise ZeroDivisionError("division by constant zero in predicate")
    return {k: _div(v, rconst) for k, v in lcoeffs.items()}, _div(lconst, rconst)


def _not_a_term(node, *parts):
    raise NonLinearError(f"unsupported term {node!r} in linear predicate")


_BOOLEAN = (Cmp, And, Or, Not, BoolConst)

_AFFINE = {
    Attr: lambda term: ({term.name: Fraction(1)}, Fraction(0)),
    Const: _affine_const,
    Arith: _affine_arith,
    **dict.fromkeys(_BOOLEAN, _not_a_term),
}

# The affine fold over a whole predicate: Boolean structure is transparent.
_LINEARITY = {**_AFFINE, **dict.fromkeys(_BOOLEAN, lambda node, *parts: None)}


def is_linear(predicate: BoolExpr) -> bool:
    """True when every atom of the predicate is affine in its attributes."""
    try:
        fold(predicate, _LINEARITY, "is_linear")
    except NonLinearError:
        return False
    return True


def _merge(left: dict, right: dict, sign: int) -> dict:
    out = dict(left)
    for k, v in right.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v != 0}


def _div(a, b):
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) / Fraction(b)
    return a / b


def atom_as_geq(atom: Cmp) -> tuple[dict[str, object], object, bool]:
    """Canonicalize a comparison atom as ``Σ aᵢxᵢ ≥ b`` (or ``> b``).

    Returns ``(coefficients, b, strict)``.  ``<``/``<=`` atoms are negated
    into the canonical orientation; ``=``/``!=`` are handled separately by
    :func:`atom_epsilon`.
    """
    if atom.op in ("=", "!="):
        raise ValueError("equality atoms have no ≥-canonical form; use atom_epsilon")
    lcoeffs, lconst = affine_form(atom.left)
    rcoeffs, rconst = affine_form(atom.right)
    coeffs = _merge(lcoeffs, rcoeffs, -1)
    b = rconst - lconst
    if atom.op in (">=", ">"):
        return coeffs, b, atom.op == ">"
    # a < b  ⇔  -a > -b ;  a <= b  ⇔  -a >= -b
    coeffs = {k: -v for k, v in coeffs.items()}
    return coeffs, -b, atom.op == "<"


def theorem_52_epsilon(
    coeffs: Mapping[str, object], b, point: Mapping[str, object]
) -> float:
    """The closed-form ε of Theorem 5.2 for a *satisfied* atom Σaᵢxᵢ ≥ b.

    The caller must ensure α = Σaᵢp̂ᵢ ≥ b.  Returns ``inf`` when the atom
    is constant over the orthotope (β = 0), 0 when the point lies on the
    hyperplane (Remark 5.3), and the (possibly ≥ 1, unclamped) maximal ε
    otherwise.
    """
    alpha = sum(a * point[name] for name, a in coeffs.items())
    beta = sum(abs(a * point[name]) for name, a in coeffs.items())
    if alpha < b:
        raise ValueError(
            f"theorem_52_epsilon requires a satisfying point (α={alpha} < b={b})"
        )
    if beta == 0:
        return math.inf
    if alpha == b:
        return 0.0
    if b == 0:
        return float(_div(alpha, beta))
    alpha_f, beta_f, b_f = float(alpha), float(beta), float(b)
    # The touching quadratic is homogeneous in (α, β, b), so rescale to
    # ~1 first: for extreme coefficients (|β| ≈ 1e−264 or 1e+200) the
    # products below would under/overflow and silently select the wrong
    # root, yielding an ε that is NOT homogeneous for the orthotope.
    scale = max(abs(alpha_f), abs(beta_f), abs(b_f))
    alpha_f, beta_f, b_f = alpha_f / scale, beta_f / scale, b_f / scale
    disc = beta_f * beta_f - 4.0 * b_f * (alpha_f - b_f)
    # The paper shows disc = β² − α² + (α − 2b)² ≥ 0; guard numeric noise.
    disc = max(disc, 0.0)
    root = math.sqrt(disc)
    # Root selection.  The touching condition Σ aᵢp̂ᵢ/(1+sgn(aᵢp̂ᵢ)ε) = b is
    # strictly decreasing in ε on [0, 1); multiplying through by
    # (1−ε)(1+ε) to get the paper's quadratic b·ε² − β·ε + (α−b) = 0 can
    # introduce a spurious second root.  The geometrically correct ε is the
    # unique root of the *original* monotone equation in (0, 1), which for
    # either sign of b is (β − √disc)/(2b); the paper's "larger of the two
    # solutions" coincides with it for b < 0 but, for b > 0, always names
    # the spurious root ≥ 1 (e.g. x₁+x₂ ≥ 0.6 at (0.5, 0.5): roots are
    # {2/3, 1}; only ε = 2/3 makes the orthotope touch the hyperplane).
    # If the root is ≥ 1 the orthotope never reaches the hyperplane for
    # any admissible ε, so the radius is unbounded.
    #
    # Computed in the conjugate form 2(α−b)/(β+√disc), algebraically
    # equal to (β−√disc)/(2b) but free of the catastrophic cancellation
    # β−√disc suffers when |b| ≪ β (√disc rounds to a float-neighbour of
    # β and the difference is pure rounding error — for b ≈ 1e−16 the
    # naive form returned radii more than 2x too large).  β+√disc > 0
    # always: β > 0 here, and the limit b→0 recovers (α−b)/β.
    eps = 2.0 * (alpha_f - b_f) / (beta_f + root)
    if eps >= 1.0:
        return math.inf
    return max(eps, 0.0)


def atom_margin(atom: Cmp, point: Mapping[str, object]):
    """``(coeffs, b, α, β)`` for the hyperplane Σaᵢxᵢ = b bounding ``atom``.

    α = Σaᵢp̂ᵢ and β = Σ|aᵢp̂ᵢ| at ``point``; an ``=``/``!=`` atom is
    bounded by the hyperplane of its ``>=`` form.
    """
    proxy = Cmp(">=", atom.left, atom.right) if atom.op in ("=", "!=") else atom
    coeffs, b, _strict = atom_as_geq(proxy)
    products = [a * point[name] for name, a in coeffs.items()]
    return coeffs, b, sum(products), sum(map(abs, products))


def atom_epsilon(atom: Cmp, point: Mapping[str, object]) -> float:
    """Homogeneity radius of one comparison atom at ``point``.

    The radius of the largest Lemma 5.1 orthotope on which the atom keeps
    the truth value it has at the point.  Equality atoms that hold at the
    point have radius 0 (every neighbourhood crosses the hyperplane) —
    they can never be approximated, cf. Example 5.7.
    """
    coeffs, b, alpha, beta = atom_margin(atom, point)
    if beta == 0:
        return math.inf  # constant atom
    if alpha == b:
        # On the hyperplane: whichever truth value the atom takes, any
        # neighbourhood contains both sides — Remark 5.3 / singularity.
        return 0.0
    if alpha > b:
        return theorem_52_epsilon(coeffs, b, point)
    # The other side: radius of the complement Σ(−aᵢ)xᵢ > −b.
    return theorem_52_epsilon({k: -v for k, v in coeffs.items()}, -b, point)


def _junction_radius(quantifier, point, atom_radius, node, *parts):
    """``And`` (``all``) / ``Or`` (``any``) over ``(truth, radius thunk)`` pairs."""
    truth = quantifier(t for t, _ in parts)
    # A true And / false Or needs every child to keep its value: min.
    # Otherwise one child that already decides the node suffices: max.
    pick = min if truth == (quantifier is all) else max
    return truth, lambda: pick(radius() for t, radius in parts if t == truth)


_MIN_MAX = {
    **dict.fromkeys((Attr, Const, Arith), lambda point, atom_radius, term, *operands: None),
    BoolConst: lambda point, atom_radius, node: (node.value, lambda: math.inf),
    Cmp: lambda point, atom_radius, atom, left, right: (
        atom.evaluate(point),
        partial(atom_radius, atom, point),
    ),
    Not: lambda point, atom_radius, node, arg: (not arg[0], arg[1]),
    And: partial(_junction_radius, all),
    Or: partial(_junction_radius, any),
}


def min_max_radius(
    predicate: BoolExpr, point: Mapping[str, object], atom_radius
) -> tuple[bool, float]:
    """``(φ(point), radius)`` by Section 5's min/max rule over per-atom radii.

    The truth-oriented rule of the module docstring.  Truth values are
    folded bottom-up, every atom evaluated once; ``atom_radius(atom,
    point)`` is then asked only for the atoms the rule reaches (the
    children that share a mixed node's truth value), so an atom outside
    ``atom_radius``'s fragment matters only where it decides.
    """
    truth, radius = fold(predicate, _MIN_MAX, "min_max_radius", point, atom_radius)
    return truth, radius()


def epsilon_for_predicate(predicate: BoolExpr, point: Mapping[str, object]) -> float:
    """ε_φ(p̂₁, …, p̂_k): maximal homogeneous ε for a Boolean combination.

    Returns ``inf`` for predicates constant on every orthotope and 0 at
    singular points.
    """
    return min_max_radius(predicate, point, atom_epsilon)[1]


def clamp_epsilon(eps: float, floor: float = 0.0, cap: float = EPS_CAP) -> float:
    """Clamp ε into [floor, cap] ⊂ [0, 1) for use in Lemma 5.1 (Remark 5.3)."""
    return max(floor, min(eps, cap))
