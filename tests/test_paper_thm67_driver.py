"""E16 — Theorem 6.7: the doubling driver achieves any δ in polynomial work.

Shape claims: (a) the driver achieves δ for all non-singular tuples;
(b) as δ shrinks geometrically the final round budget grows only like
log(1/δ) (the l ∝ log(…/δ) of the proof); (c) total work = Σ evaluations
is within a constant factor of the final evaluation (geometric series).
"""

from __future__ import annotations

import repro
from repro.algebra.builder import rel
from repro.algebra.expressions import col, lit


def _query():
    return rel("T").approx_select(
        (col("P1") / col("P2")) <= lit(0.5), groups=[["CoinType"], []]
    )


def test_achieves_shrinking_deltas(coin_session_after_T):
    engine = repro.connect(coin_session_after_T.db)
    rounds_used = []
    for delta in (0.2, 0.05, 0.0125):
        report = engine.evaluate_with_guarantee(_query(), delta=delta, eps0=0.05, rng=3)
        assert report.achieved
        non_singular = {
            r: b
            for r, b in report.tuple_bounds.items()
            if r not in report.singular_rows
        }
        assert all(b <= delta for b in non_singular.values())
        rounds_used.append(report.rounds)
    # log growth: 16× smaller δ costs far less than 16× the rounds.
    assert rounds_used[-1] <= 8 * rounds_used[0]
    assert rounds_used == sorted(rounds_used)


def test_doubling_total_work_geometric(coin_session_after_T):
    report = repro.connect(coin_session_after_T.db).evaluate_with_guarantee(
        _query(), delta=0.02, eps0=0.05, rng=4
    )
    total_rounds = sum(l for l, _ in report.history)
    assert total_rounds <= 2 * report.rounds + report.evaluations


def test_selects_fair_only(coin_session_after_T):
    report = repro.connect(coin_session_after_T.db).evaluate_with_guarantee(
        _query(), delta=0.05, eps0=0.05, rng=5
    )
    assert {vals[0] for _, vals in report.relation.rows} == {"fair"}
