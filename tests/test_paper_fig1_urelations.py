"""E2 — Figure 1: the U-relational databases after computing R and T.

Paper artifact: Figure 1(a) (U_R and W after R) and Figure 1(b) (U_S and
the extended W; U_T after T).  Shape assertions check the row counts,
the condition sizes, and the Figure 1(b) detail that deterministic
repair choices (the double-headed coin's tosses) carry *empty*
conditions.
"""

from __future__ import annotations

from fractions import Fraction

import repro
from repro.generators.coins import coin_database, evidence_query, pick_coin_query, toss_query


def test_figure_1a_shapes():
    db = coin_database()
    session = repro.connect(db, strategy="exact-decomposition")
    u_r = session.assign("R", pick_coin_query()).relation
    assert len(u_r) == 2
    assert all(len(cond) == 1 for cond, _ in u_r.rows)
    assert len(db.w) == 1
    (var,) = db.w.variables
    assert sorted(db.w.distribution(var).values()) == [Fraction(1, 3), Fraction(2, 3)]


def test_figure_1b_shapes():
    db = coin_database()
    session = repro.connect(db, strategy="exact-decomposition")
    session.assign("R", pick_coin_query())
    u_s = session.assign("S", toss_query(2)).relation
    fair = [cond for cond, vals in u_s.rows if vals[0] == "fair"]
    headed = [cond for cond, vals in u_s.rows if vals[0] == "2headed"]
    assert len(fair) == 4 and all(len(c) == 1 for c in fair)
    assert len(headed) == 2 and all(c.is_empty for c in headed)
    assert len(db.w) == 3  # coin choice + two fair-toss variables

    u_t = session.assign("T", evidence_query(["H", "H"])).relation
    sizes = {vals[0]: len(cond) for cond, vals in u_t.rows}
    assert sizes == {"fair": 3, "2headed": 1}
