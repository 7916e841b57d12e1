"""E13 — Example 6.3: error *bounds* are not error *probabilities*.

Shape claim: reading the bound δ as an exact probability overestimates —
1 − δ + δ² > 1 − δ + e·δ for every true error e < δ — "and will lead to
a too small error bound".  The gap series over δ is regenerated, and the
modeled value is confirmed by actually building R′ as a tuple-
independent database and running conf(π_∅).
"""

from __future__ import annotations

import pytest

from repro.algebra.builder import query, rel
from repro.core import (
    UnreliableTuple,
    example_63_modeled_probability,
    example_63_true_probability,
    unreliable_relation_as_uncertain,
)
from repro.urel import UEvaluator


def _gap_series():
    rows = []
    for delta in (0.05, 0.1, 0.2, 0.4):
        e = delta / 4
        truth = example_63_true_probability(delta, e)
        modeled = example_63_modeled_probability(delta)
        rows.append(
            {
                "delta": delta,
                "e": e,
                "true": truth,
                "modeled": modeled,
                "overestimate": modeled - truth,
            }
        )
    return rows


def test_gap_positive_and_growing():
    rows = _gap_series()
    assert all(r["overestimate"] > 0 for r in rows)
    gaps = [r["overestimate"] for r in rows]
    assert gaps == sorted(gaps)


def test_modeled_value_via_engine():
    delta = 0.25
    db = unreliable_relation_as_uncertain(
        "R",
        ("A",),
        [
            UnreliableTuple(("t1",), selected=False, error_probability=delta),
            UnreliableTuple(("t2",), selected=True, error_probability=delta),
        ],
    )
    out = UEvaluator(db, copy_db=True).evaluate(query(rel("R").project([]).conf()))
    ((_, vals),) = out.relation.rows
    assert float(vals[0]) == pytest.approx(example_63_modeled_probability(delta))
