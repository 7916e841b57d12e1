"""E2 — Figure 1: the U-relational databases after computing R and T.

Paper artifact: Figure 1(a) (U_R and W after R) and Figure 1(b) (U_S and
the extended W; U_T after T).  Shape assertions check the row counts,
the condition sizes, and the Figure 1(b) detail that deterministic
repair choices (the double-headed coin's tosses) carry *empty*
conditions.  The benchmark times the repair-key translation.
"""

from __future__ import annotations

from fractions import Fraction

from repro.generators.coins import coin_database, pick_coin_query, toss_query, evidence_query
import repro
from repro.urel.translate import translate_repair_key
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.algebra.relations import Relation


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


def _big_dirty_relation(n_groups: int = 200, per_group: int = 4) -> URelation:
    rows = [
        (g, f"v{i}", i + 1) for g in range(n_groups) for i in range(per_group)
    ]
    return URelation.from_complete(Relation.from_rows(("K", "V", "Wt"), rows))


def test_benchmark_repair_key_translation(benchmark):
    urel = _big_dirty_relation()

    def translate():
        w = VariableTable()
        return translate_repair_key(urel, ("K",), "Wt", op_id=1, w=w)

    out = benchmark(translate)
    assert len(out) == 800
    benchmark.extra_info["groups"] = 200
    benchmark.extra_info["rows"] = 800
