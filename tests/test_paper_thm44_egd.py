"""E7 — Theorem 4.4: conditional probabilities under egds in positive UA[conf].

Shape claims: the rewriting Pr[φ∧ψ] = Pr[φ] − Pr[φ∧¬ψ] equals the
brute-force possible-worlds value exactly, on the coin database with the
"all observed tosses show the same face" dependency.
"""

from __future__ import annotations

import repro
from repro.algebra.expressions import col
from repro.calculus import (
    Atom,
    Egd,
    ExistentialQuery,
    QVar,
    boolean_confidence,
    probability,
    theorem_44_probability,
)
from repro.generators.coins import coin_database, pick_coin_query, toss_query
from repro.urel import enumerate_worlds


def _db():
    db = coin_database()
    session = repro.connect(db, strategy="exact-decomposition")
    session.assign("R", pick_coin_query())
    session.assign("S", toss_query(2))
    return db


def _phi():
    x = QVar("x")
    return ExistentialQuery.of(Atom("R", [x]), Atom("S", [x, 1, "H"]))


def _same_face_egd():
    y1, y2 = QVar("y1"), QVar("y2")
    t1, t2, f1, f2 = QVar("t1"), QVar("t2"), QVar("f1"), QVar("f2")
    body = ExistentialQuery.of(Atom("R", [y1]), Atom("S", [y1, t1, f1])).and_(
        ExistentialQuery.of(Atom("R", [y2]), Atom("S", [y2, t2, f2]))
    )
    return Egd(body, col("f1").eq(col("f2")))


def test_rewriting_equals_reference():
    db = _db()
    pw = enumerate_worlds(db)
    phi, egd = _phi(), _same_face_egd()
    reference = sum(
        w.probability
        for w in pw.worlds
        if phi.holds(w.relations) and egd.holds(w.relations)
    )
    assert theorem_44_probability(phi, [egd], db) == reference
    # and the two-term decomposition is the paper's formula:
    assert reference == boolean_confidence(phi, db) - boolean_confidence(
        phi.and_(egd.negation()), db
    )


def test_conditional_probability_value():
    db = _db()
    pw = enumerate_worlds(db)
    phi, egd = _phi(), _same_face_egd()
    joint = theorem_44_probability(phi, [egd], db)
    given = probability(egd, pw)
    conditional = joint / given
    assert 0 < conditional <= 1
