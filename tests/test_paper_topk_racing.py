"""E22 — top-k by confidence-interval racing vs. the uniform allocation.

``race_topk`` answers "which k tuples have the highest confidence?"
without paying the uniform Karp–Luby allocation for every candidate:
dissociation enclosures decide the easy bulk for free, survivors get a
coarse batch, and only candidates whose Lemma 5.1 intervals still
overlap the running k-th threshold keep sampling.  The workload is
top-10 over single-clause candidates (decided at stage 1 with zero
trials) plus 48 contested K₄,₄ bipartite 2-DNFs, each behind a selector
variable, whose budget-0 enclosures overlap across the k-boundary.

The racer's win is budget asymmetry: the uniform per-candidate
allocation grows as 1/ε², while the race stops each boundary duel as
soon as the intervals separate — a gap fixed by the workload's truth
ratio (0.9 vs 0.45), not by ε.
"""

from __future__ import annotations

import math

from repro.confidence.dnf import Dnf
from repro.core.topk import race_topk
from repro.urel.conditions import Condition
from repro.urel.variables import VariableTable

N_SINGLE = 2_000  # stage-1 fodder: exact enclosures, zero trials
N_HARD = 48  # contested K4,4 candidates racing the k-boundary
N_TOP = 10  # planted winners (truth ~0.9; the rest sit at ~0.45)
K = 10
EPS, DELTA = 0.02, 0.05
BOUNDS_BUDGET = 0  # keep the K4,4 enclosures non-exact so the race samples
SEED = 99


SELECTOR = 0.95  # P(s): the selector every clause of a K4,4 candidate reads


def _k44_variable_probability(truth: float) -> float:
    """v with P(s)·(1 − (1−v)⁴)² = truth — the selected K₄,₄ truth dial."""
    return 1.0 - (1.0 - math.sqrt(truth / SELECTOR)) ** 0.25


def topk_workload(n_single: int, n_hard: int):
    """(rows, dnfs): n_single single-clause candidates under 0.5, plus
    n_hard K₄,₄ candidates — N_TOP planted near 0.9, the rest near 0.45.

    The truth ratio across the k-boundary is 2 (> (1+ε)/(1−ε) for any
    ε here), so the race separates it at a coarse achieved-ε; the
    budget-0 enclosures of the two groups overlap, so bounds alone
    cannot decide and real sampling is forced.  Every clause of a K₄,₄
    candidate also reads that candidate's selector s, so the read-once
    floor of its budget-0 base case holds a single clause.
    """
    w = VariableTable()
    rows, dnfs = [], []
    for i in range(n_single):
        p = 0.01 + 0.49 * (i / n_single)
        w.add(("s", i), {1: p, 0: 1 - p})
        rows.append((f"s{i}",))
        dnfs.append(Dnf([Condition({("s", i): 1})], w))
    for j in range(n_hard):
        truth = 0.90 - 0.002 * j if j < N_TOP else 0.45 - 0.004 * (j - N_TOP)
        v = _k44_variable_probability(truth)
        for a in range(4):
            w.add(("hx", j, a), {1: v, 0: 1 - v})
            w.add(("hy", j, a), {1: v, 0: 1 - v})
        w.add(("hs", j), {1: SELECTOR, 0: 1 - SELECTOR})
        rows.append((f"h{j}",))
        dnfs.append(
            Dnf(
                [
                    Condition({("hs", j): 1, ("hx", j, a): 1, ("hy", j, b): 1})
                    for a in range(4)
                    for b in range(4)
                ],
                w,
            )
        )
    return rows, dnfs


def test_topk_draws_a_fraction_of_the_uniform_budget():
    """The race returns exactly the planted winners from ≤ 1/10 of the uniform trials."""
    rows, dnfs = topk_workload(N_SINGLE, N_HARD)
    report = race_topk(rows, dnfs, K, EPS, DELTA, rng=SEED, bounds_budget=BOUNDS_BUDGET)
    assert set(report.rows) == {(f"h{j}",) for j in range(N_TOP)}
    assert report.candidates == N_SINGLE + N_HARD
    assert report.bounds_decided >= N_SINGLE  # the bulk never sampled
    assert report.sampled > 0 and report.total_trials > 0
    # The racer's raison d'être: a small fraction of the uniform budget.
    assert report.total_trials * 10 <= report.full_trials, (
        f"race drew {report.total_trials} of {report.full_trials} trials"
    )
