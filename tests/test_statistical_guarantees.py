"""Empirical checks of the paper's probabilistic guarantees.

The determinism suites prove that answers repeat; these prove that they
are *right often enough*: many seeded replications on instances small
enough for exact decomposition to give ground truth, with the observed
failure share held to the stated δ plus a binomial tolerance.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import repro
from repro.confidence.dnf import Dnf
from repro.confidence.exact import probability_by_decomposition
from repro.urel.conditions import Condition
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable

TAU, DELTA, EPS0 = 0.5, 0.1, 0.05
CONTESTED_GAP = 0.3


def _contested_selection_db(seed: int = 4) -> UDatabase:
    """G(A): four repair-key groups plus two contested candidates near τ.

    The shape of the end-to-end ``guarantee_select`` workload, shrunk: a
    group tuple holds two of the four alternatives of one variable
    (mutually exclusive clauses, confidences 0.2 … 0.8 clear of τ); a
    contested candidate is the K₃,₃ 2-DNF conjoined with a private
    variable z that places its confidence at τ·(1 + CONTESTED_GAP).
    """
    rng = random.Random(seed)
    w = VariableTable()
    rows = []
    for k, percent in enumerate((20, 35, 65, 80)):
        first = rng.randint(1, percent - 1)
        third = rng.randint(1, 99 - percent)
        weights = [first, percent - first, third, 100 - percent - third]
        w.add(("rk", k), {v: Fraction(wt, 100) for v, wt in enumerate(weights)})
        rows += [(Condition({("rk", k): v}), (k,)) for v in (0, 1)]
    for c in range(2):
        for side in "xy":
            for i in range(3):
                w.add((side, c, i), {1: Fraction(1, 2), 0: Fraction(1, 2)})
        clauses = [{("x", c, a): 1, ("y", c, b): 1} for a in range(3) for b in range(3)]
        p_f = probability_by_decomposition(Dnf([Condition(cl) for cl in clauses], w))
        p_z = Fraction(TAU * (1 + CONTESTED_GAP)).limit_denominator(1000) / p_f
        w.add(("z", c), {1: p_z, 0: 1 - p_z})
        rows += [(Condition({**cl, ("z", c): 1}), (1000 + c,)) for cl in clauses]
    db = UDatabase(w=w)
    db.set_relation("G", URelation.from_rows(("A",), rows))
    return db


def test_driver_membership_error_stays_within_delta():
    """Theorem 6.7: each tuple is misplaced with probability at most δ.

    200 seeded driver runs; ``bounds_budget=0`` so every candidate's
    decision rides on sampled Figure 3 rounds, not on certified bounds.
    Tuples inside the ε₀ band around τ or flagged singular are outside
    the guarantee, exactly as the theorem states it.
    """
    replications = 200
    db = _contested_selection_db()
    with repro.connect(db, strategy="exact-decomposition") as exact:
        truth = {row[0]: rep.value for row, rep in exact.confidence_all("G").items()}
    assert all(abs(p / TAU - 1) > EPS0 for p in truth.values())

    misplaced = dict.fromkeys(truth, 0)
    sampled = 0
    with repro.connect(db, rng=0) as session:
        for seed in range(replications):
            report = session.evaluate_with_guarantee(
                "aselect[P > 0.5 ; conf(A) as P](G)",
                delta=DELTA,
                eps0=EPS0,
                rng=seed,
                bounds_budget=0,
            )
            assert report.achieved
            sampled += sum(r.decision.total_trials for r in report.decisions)
            kept = {values[0] for _cond, values in report.relation.rows}
            flagged = {values[0] for _cond, values in report.singular_rows}
            for key, confidence in truth.items():
                if key not in flagged and (key in kept) != (confidence > TAU):
                    misplaced[key] += 1
    assert sampled > 0  # the guarantee is vacuous unless decisions sample
    # Three binomial standard deviations above δ.
    tolerance = 3 * math.sqrt(DELTA * (1 - DELTA) / replications)
    for key, count in misplaced.items():
        assert count / replications <= DELTA + tolerance, (key, count)
