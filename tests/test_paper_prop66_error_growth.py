"""E15 — Proposition 6.6: error growth with σ̂ nesting depth.

Shape claims: (a) the closed-form bound k·d·n^{k·d}·δ′(ε₀, l) grows with
depth d and domain size n and shrinks exponentially in the round budget
l; (b) a genuinely *nested* σ̂ query (σ̂ over a join of a σ̂ output with
fresh uncertain data — the F ⊗ G shape of Definition 6.2) accumulates
per-tuple bounds strictly larger than the single-σ̂ case, and both stay
under the Proposition 6.6 ceiling.
"""

from __future__ import annotations

from repro.algebra.builder import query, rel
from repro.algebra.expressions import col, lit
from repro.core import ApproxQueryEvaluator, proposition_66_bound
from repro.generators.tpdb import add_tuple_independent, tuple_independent


def _nested_db():
    # R(A,B): uncertain; S(B,C): uncertain — σ̂ over R, join S, σ̂ again.
    rows_r = [((f"a{i % 3}", f"b{i % 2}"), 0.5) for i in range(6)]
    db = tuple_independent("R", ("A", "B"), rows_r)
    add_tuple_independent(
        db, "S", ("B", "C"), [((f"b{i % 2}", f"c{i}"), 0.6) for i in range(4)]
    )
    return db


def _depth1():
    return rel("R").approx_select(col("P1") >= lit(0.2), groups=[["A", "B"]])


def _depth2():
    joined = _depth1().project(["A", "B"]).join(rel("S"))
    return joined.approx_select(col("Q1") >= lit(0.3), groups=[["B"]], p_names=["Q1"])


def _worst_bound(q, db, rounds, seed):
    evaluator = ApproxQueryEvaluator(db, eps0=0.08, rounds=rounds, rng=seed)
    out = evaluator.evaluate(query(q))
    return out.worst_bound(include_singular=True)


def test_closed_form_shape():
    base = proposition_66_bound(2, 1, 4, 0.1, 2000)
    assert proposition_66_bound(2, 2, 4, 0.1, 2000) >= base  # grows in d
    assert proposition_66_bound(2, 1, 8, 0.1, 2000) >= base  # grows in n
    assert proposition_66_bound(2, 1, 4, 0.1, 4000) <= base  # shrinks in l


def test_nested_bounds_grow_with_depth_and_respect_ceiling():
    db = _nested_db()
    rounds = 400
    b1 = _worst_bound(_depth1(), db, rounds, seed=5)
    b2 = _worst_bound(_depth2(), db, rounds, seed=5)
    assert b2 >= b1  # deeper provenance accumulates more error mass
    n = 12  # active domain upper bound for this database
    ceiling_d2 = proposition_66_bound(2, 2, n, 0.08, rounds)
    assert b2 <= ceiling_d2 + 1e-9


def test_bounds_shrink_with_rounds():
    db = _nested_db()
    loose = _worst_bound(_depth2(), db, rounds=50, seed=7)
    tight = _worst_bound(_depth2(), db, rounds=800, seed=7)
    assert tight <= loose
