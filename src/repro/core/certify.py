"""Three-valued interval evaluation of σ̂ predicates over bound boxes.

The Figure 3 algorithm decides φ(p₁,…,p_k) by sampling each pᵢ.  When
:mod:`repro.confidence.dissociation` supplies a guaranteed interval for
every stochastic value, φ can often be decided *without a single trial*:
evaluate the predicate over the box of intervals with interval
arithmetic and Kleene logic, and if the result is a definite True/False
the decision is certain — the true point lies inside the box, so every
point of the box agreeing on φ means the true point agrees too.

(The box here is different in kind from the Lemma 5.1 orthotope of
:mod:`repro.core.intervals`: that one holds the true point only with
probability ≥ 1 − Σδᵢ, this one holds it *always* — which is why a
certified decision carries error bound 0.)

:func:`certify_predicate` returns ``True`` / ``False`` when the box
decides the predicate and ``None`` when it does not (an interval
straddles a comparison, or the expression leaves the fragment the
interval arithmetic covers — non-numeric data, division by an interval
containing zero).  ``None`` always falls back to sampling; certification
is an optimization, never a semantics change.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import partial
from numbers import Real

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
from repro.confidence.dissociation import BoundInterval

__all__ = ["certify_predicate", "evaluate_term_interval"]

_UNKNOWN = object()
"""Sentinel: the term leaves the interval-arithmetic fragment."""

_POINT = "point"
"""Tag of an opaque non-numeric point result (usable for = / != only)."""


def _as_interval(value):
    """Lower an environment entry to ``(lo, hi)``, a point, or unknown.

    Numbers (including exact Fractions) become point intervals; a
    :class:`BoundInterval` or a ``(lo, hi)`` pair becomes itself;
    non-numeric constants (strings — join keys, categories) stay as
    opaque points usable only for (in)equality.
    """
    if isinstance(value, BoundInterval):
        return (value.lower, value.upper)
    if isinstance(value, tuple) and len(value) == 2:
        return (value[0], value[1])
    if isinstance(value, bool):
        return _UNKNOWN
    if isinstance(value, Real):
        return (value, value)
    return (_POINT, value)


def evaluate_term_interval(term: Term, env: Mapping[str, object]):
    """Interval of a term over ``env``; ``None`` when outside the fragment.

    ``env`` maps attribute names to numbers, ``(lo, hi)`` pairs,
    :class:`BoundInterval` objects, or arbitrary constants.  Returns a
    numeric ``(lo, hi)`` pair, an opaque ``("point", value)`` pair for
    non-numeric constants, or ``None``.
    """
    result = fold(term, _HANDLERS, "evaluate_term_interval", env)
    return None if result is _UNKNOWN else result


def _arith(env, term: Arith, left, right):
    if left is _UNKNOWN or right is _UNKNOWN:
        return _UNKNOWN
    if left[0] is _POINT or right[0] is _POINT:
        return _UNKNOWN  # arithmetic on non-numeric data
    return _arith_interval(term.op, left, right)


def _arith_interval(op: str, a, b):
    alo, ahi = a
    blo, bhi = b
    if op == "+":
        return (alo + blo, ahi + bhi)
    if op == "-":
        return (alo - bhi, ahi - blo)
    if op == "*":
        corners = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        return (min(corners), max(corners))
    if op == "/":
        if blo <= 0 <= bhi:
            return _UNKNOWN  # divisor interval contains zero
        corners = (alo / blo, alo / bhi, ahi / blo, ahi / bhi)
        return (min(corners), max(corners))
    return _UNKNOWN


def _compare(op: str, a, b):
    """Kleene comparison of two interval/point results."""
    a_point = a[0] is _POINT
    b_point = b[0] is _POINT
    if a_point or b_point:
        # Opaque values decide only exact (in)equality, and only
        # point-to-point: an opaque vs numeric comparison is left to the
        # runtime's own semantics.
        if not (a_point and b_point):
            return None
        if op == "=":
            return a[1] == b[1]
        if op == "!=":
            return a[1] != b[1]
        return None
    alo, ahi = a
    blo, bhi = b
    if op == "<":
        if ahi < blo:
            return True
        if alo >= bhi:
            return False
        return None
    if op == "<=":
        if ahi <= blo:
            return True
        if alo > bhi:
            return False
        return None
    if op == ">":
        return _compare("<", b, a)
    if op == ">=":
        return _compare("<=", b, a)
    if op == "=":
        if alo == ahi == blo == bhi:
            return True
        if ahi < blo or bhi < alo:
            return False
        return None
    if op == "!=":
        eq = _compare("=", a, b)
        return None if eq is None else not eq
    return None


def _atom(env, atom: Cmp, left, right):
    if left is _UNKNOWN or right is _UNKNOWN:
        return None
    return _compare(atom.op, left, right)


def _kleene(veto: bool, env, node, *results):
    """``And`` (veto False) / ``Or`` (veto True) in three-valued logic."""
    if veto in results:
        return veto
    return None if None in results else not veto


_HANDLERS = {
    Const: lambda env, term: _as_interval(term.value),
    Attr: lambda env, term: _as_interval(env[term.name]) if term.name in env else _UNKNOWN,
    Arith: _arith,
    BoolConst: lambda env, node: node.value,
    Cmp: _atom,
    Not: lambda env, node, inner: None if inner is None else not inner,
    And: partial(_kleene, False),
    Or: partial(_kleene, True),
}


def certify_predicate(predicate: BoolExpr, env: Mapping[str, object]) -> bool | None:
    """Decide ``predicate`` over the box ``env``, or ``None`` if it straddles.

    Kleene three-valued logic: And is False if any conjunct is False,
    True only if all are True; Or dually; Not flips; an atom whose
    interval comparison is inconclusive is unknown.  A non-``None``
    answer is *guaranteed* for every point of the box — in particular
    for the true confidences the intervals enclose.
    """
    return fold(predicate, _HANDLERS, "certify_predicate", env)
