"""E12 — Section 5 closing claim: adaptive speedup ≈ (ε_φ² − ε₀²)/ε_φ².

The paper: "The running time improves by close to a factor of
(ε_φ² − ε₀²)/ε_φ² over the naive algorithm".  In trial-count terms the
naive cost is ∝ 1/ε₀² while the adaptive cost is ∝ 1/ε_φ² (stopping once
ε_ψ(p̂) separates), so measured speedup ≈ ε_φ²/ε₀², i.e. the fraction of
naive work *saved* is (ε_φ² − ε₀²)/ε_φ².  We regenerate that series: the
saved fraction must track the predicted factor as the margin grows.
"""

from __future__ import annotations

from repro.algebra.expressions import col, lit
from repro.confidence import probability_by_decomposition
from repro.core import approximate_predicate, epsilon_for_predicate, naive_decide
from repro.generators.hard import chain_dnf

DNF = chain_dnf(5)
TRUTH = float(probability_by_decomposition(DNF))
EPS0, DELTA = 0.05, 0.1


def _series():
    rows = []
    for factor in (0.9, 0.7, 0.5, 0.3):
        threshold = TRUTH * factor
        pred = col("p") >= lit(threshold)
        eps_phi = epsilon_for_predicate(pred, {"p": TRUTH})
        adaptive = approximate_predicate(pred, {"p": DNF}, EPS0, DELTA, rng=21)
        naive = naive_decide(pred, {"p": DNF}, EPS0, DELTA, rng=22)
        saved = 1.0 - adaptive.total_trials / naive.total_trials
        predicted = max(0.0, (eps_phi**2 - EPS0**2) / eps_phi**2)
        rows.append(
            {
                "threshold_factor": factor,
                "eps_phi": round(eps_phi, 4),
                "adaptive_trials": adaptive.total_trials,
                "naive_trials": naive.total_trials,
                "saved_fraction": round(saved, 4),
                "paper_predicted_saved": round(predicted, 4),
            }
        )
    return rows


def test_saved_fraction_tracks_paper_factor():
    rows = _series()
    for row in rows:
        if row["paper_predicted_saved"] > 0.5:
            # Deep in the predicted-savings regime the measured savings
            # must be large too (within a generous band: the adaptive
            # algorithm re-estimates every round, costing a log factor).
            assert row["saved_fraction"] > 0.5 * row["paper_predicted_saved"]
    # monotone: larger margin → more savings
    saved = [r["saved_fraction"] for r in rows]
    assert saved == sorted(saved)
