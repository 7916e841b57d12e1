"""Uncertainty-introducing and world-closing operations on U-relations.

The purely-relational operations translate parsimoniously and live on
:class:`~repro.urel.urelation.URelation`; this module holds the two
operations that touch the W table:

* ``repair-key`` — introduces fresh random variables (the only operation
  that extends W, as the paper notes);
* ``conf`` — closes the possible-worlds semantics into a complete
  relation of confidences, exactly (#P subprocedure) or via Karp–Luby.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction
from numbers import Rational

from typing import TYPE_CHECKING

from repro.algebra import schema as _schema
from repro.urel.conditions import TOP, Condition

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.confidence.karp_luby import KarpLubyEstimate
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.rng import ensure_rng
from repro.worlds.database import Prob
from repro.worlds.repair import RepairError

__all__ = [
    "translate_repair_key",
    "exact_confidence_relation",
    "approx_confidence_relation",
    "tuple_confidence",
]


def _ratio(weight: Prob, total: Prob) -> Prob:
    if isinstance(weight, Rational) and isinstance(total, Rational):
        return Fraction(weight) / Fraction(total)
    return float(weight) / float(total)


def translate_repair_key(
    urel: URelation,
    key: Sequence[str],
    weight: str,
    op_id: int,
    w: VariableTable,
) -> URelation:
    """[[repair-key_{Ā@B}(R)]] on a U-relational representation (Section 3).

    For each Ā-group a fresh random variable is added to W whose domain
    values identify the group's tuples and whose probabilities are the
    normalized weights; each tuple's condition gains the pair
    ``variable ↦ its-domain-value``.

    Groups with a single tuple (choice probability 1) introduce *no*
    variable — this matches Figure 1(b), where the double-headed coin's
    tosses carry empty conditions.

    The input must be complete (``c(R) = 1``, Definition 2.1); the output
    schema equals the input schema.
    """
    if not urel.is_certain:
        raise RepairError(
            "repair-key requires a complete relation (c(R)=1, Definition 2.1)"
        )
    cols = urel.columns
    key_t = tuple(key)
    key_pos = _schema.positions(cols, key_t)
    weight_pos = _schema.positions(cols, (weight,))[0]
    rest_pos = tuple(i for i in range(len(cols)) if i not in set(key_pos))

    groups: dict[tuple, list[tuple]] = {}
    for _cond, vals in urel.rows:
        wgt = vals[weight_pos]
        if not isinstance(wgt, (int, float, Fraction)) or isinstance(wgt, bool) or wgt <= 0:
            raise RepairError(
                f"repair-key weight column {weight!r} must hold numbers > 0, got {wgt!r}"
            )
        groups.setdefault(tuple(vals[i] for i in key_pos), []).append(vals)

    out_rows: set = set()
    for key_vals, rows in sorted(groups.items(), key=lambda kv: repr(kv[0])):
        if len(rows) == 1:
            # Deterministic choice: no new variable, empty condition.
            out_rows.add((TOP, rows[0]))
            continue
        total = sum(r[weight_pos] for r in rows)
        var = ("rk", op_id, key_vals)
        distribution = {
            tuple(r[i] for i in rest_pos): _ratio(r[weight_pos], total) for r in rows
        }
        w.ensure(var, distribution)
        for r in rows:
            dom_value = tuple(r[i] for i in rest_pos)
            out_rows.add((Condition({var: dom_value}), r))
    return URelation(cols, frozenset(out_rows))


def tuple_confidence(
    urel: URelation,
    row: Sequence,
    w: VariableTable,
    method: str = "decomposition",
) -> Prob:
    """Exact confidence of one data tuple (the weight of its disjunction F)."""
    from repro.confidence.dnf import Dnf
    from repro.confidence.exact import exact_probability

    return exact_probability(Dnf.for_tuple(urel, row, w), method)


def exact_confidence_relation(
    urel: URelation,
    w: VariableTable,
    p_name: str = "P",
    method: str = "decomposition",
) -> URelation:
    """[[conf(R)]]: complete relation of ⟨t, Pr[t ∈ R]⟩ over poss(R)."""
    cols = urel.columns
    if p_name in cols:
        raise _schema.SchemaError(f"conf column {p_name!r} collides with schema {cols}")
    out = set()
    for t in urel.possible_tuples().rows:
        p = tuple_confidence(urel, t, w, method)
        out.add((TOP, t + (p,)))
    return URelation(cols + (p_name,), frozenset(out))


def approx_confidence_relation(
    urel: URelation,
    w: VariableTable,
    eps: float,
    delta: float,
    rng: random.Random | int | None = None,
    p_name: str = "P",
    backend: str | None = None,
    executor=None,
) -> tuple[URelation, dict[tuple, "KarpLubyEstimate"]]:
    """[[conf_{ε,δ}(R)]]: Karp–Luby confidences (Corollary 4.3).

    Returns the complete output relation and the per-tuple estimates with
    their sampling metadata, so callers can audit each (ε, δ) guarantee.
    Each tuple's Proposition 4.2 budget is drawn by the batch trial
    engine on the evaluator's ``backend`` and ``executor``.
    """
    from repro.confidence.batch import batch_approximate_confidence
    from repro.confidence.dnf import Dnf

    generator = ensure_rng(rng)
    cols = urel.columns
    if p_name in cols:
        raise _schema.SchemaError(f"conf column {p_name!r} collides with schema {cols}")
    out = set()
    estimates: dict[tuple, "KarpLubyEstimate"] = {}
    for t in sorted(urel.possible_tuples().rows, key=repr):
        estimate = batch_approximate_confidence(
            Dnf.for_tuple(urel, t, w), eps, delta, generator, backend=backend, executor=executor
        )
        estimates[t] = estimate
        out.add((TOP, t + (estimate.estimate,)))
    return URelation(cols + (p_name,), frozenset(out)), estimates
