"""Uncertainty-introducing and world-closing operations on U-relations.

The purely-relational operations translate parsimoniously and live on
:class:`~repro.urel.urelation.URelation`; this module holds the two
translations that do not:

* ``repair-key`` — introduces fresh random variables (the only operation
  that extends W, as the paper notes);
* ``conf`` — closes the possible-worlds semantics into a complete
  relation ⟨t, P⟩.  Only the *relation* is built here
  (:func:`confidence_relation`); which tuples, which disjunctions and
  which solver are the evaluator's business
  (:meth:`repro.urel.evaluate.UEvaluator.conf`), so this module needs
  nothing from ``repro.confidence``.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from numbers import Rational

from repro.algebra import schema as _schema
from repro.urel.conditions import TOP, Condition
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.worlds.database import Prob
from repro.worlds.repair import RepairError

__all__ = ["translate_repair_key", "confidence_relation"]


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
    schema equals the input schema.  A group's rows are visited in
    ``repr`` order, so the domain order and the float total follow the
    data, not the input's ``frozenset`` order.
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
        rows.sort(key=repr)
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


def confidence_relation(
    cols: tuple[str, ...], p_name: str, rows: Sequence[tuple], values: Sequence[Prob]
) -> URelation:
    """[[conf(R)]] from its parts: the complete relation of ⟨t, P⟩.

    ``cols`` is R's schema, ``rows`` are its data tuples and ``values``
    their confidences, exact or estimated, in the same order — read off
    U_R's lineage, or off a lifted plan that never built U_R.  Every
    confidence-closing operator ends here, so this is the one place the
    P column can collide with the schema.
    """
    if p_name in cols:
        raise _schema.SchemaError(f"conf column {p_name!r} collides with schema {cols}")
    out = frozenset((TOP, tuple(row) + (value,)) for row, value in zip(rows, values))
    return URelation(cols + (p_name,), out)
