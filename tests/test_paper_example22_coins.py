"""E1 — Example 2.2: the coin-tossing posterior table U.

Paper artifact: the table U = {⟨fair, 1/3⟩, ⟨2headed, 2/3⟩} and the
eight possible worlds, regenerated exactly on both engines and through
both ``repro.connect`` front doors (builder queries and a script).
"""

from __future__ import annotations

from fractions import Fraction

import repro
from repro.algebra.builder import query
from repro.generators.coins import (
    coin_database,
    coin_worlds_database,
    evidence_query,
    pick_coin_query,
    posterior_query,
    toss_query,
)
from repro.worlds import evaluate as w_evaluate, evaluate_certain

EXPECTED_U = {("fair", Fraction(1, 3)), ("2headed", Fraction(2, 3))}

POSTERIOR_SCRIPT = """
R := project[CoinType](repair-key[@ Count](Coins));
S := project[CoinType, Toss, Face](
       repair-key[CoinType, Toss @ FProb](
         product(Faces, literal[Toss]{(1), (2)})));
T := join(R, project[CoinType](select[Toss = 1 and Face = 'H'](S)),
             project[CoinType](select[Toss = 2 and Face = 'H'](S)));
U := project[CoinType, P1 / P2 -> P](
       join(conf[P1](T), conf[P2](project[](T))));
"""


def test_posterior_exact_on_both_engines():
    engine = repro.connect(coin_database())
    engine.assign("R", pick_coin_query())
    engine.assign("S", toss_query(2))
    engine.assign("T", evidence_query(["H", "H"]))
    u_succinct = engine.assign("U", posterior_query()).to_complete()
    assert u_succinct.rows == EXPECTED_U
    assert engine.worlds().n_worlds() == 8

    pw = coin_worlds_database()
    db1 = w_evaluate(query(pick_coin_query()), pw, "R")
    db2 = w_evaluate(query(toss_query(2)), db1, "S")
    db3 = w_evaluate(query(evidence_query(["H", "H"])), db2, "T")
    u_reference = evaluate_certain(query(posterior_query()), db3)
    assert u_reference.rows == EXPECTED_U
    assert db3.n_worlds() == 8


def test_posterior_via_script_front_door():
    results = repro.connect(coin_database()).run_script(POSTERIOR_SCRIPT)
    assert results["U"].to_complete().rows == EXPECTED_U
