"""E6 — Karp–Luby vs naive Monte Carlo (the motivation for Section 4).

Shape claim: at equal sample budget, Karp–Luby's *relative* error on
low-confidence tuples is far smaller than naive world-sampling's — the
reason the paper adopts [14] rather than plain simulation.  The gap
widens as the tuple probability shrinks.
"""

from __future__ import annotations

from repro.confidence import (
    BatchKarpLubySampler,
    batch_naive_confidence,
    probability_by_decomposition,
)
from repro.confidence.dnf import Dnf
from repro.urel.conditions import Condition
from repro.urel.variables import VariableTable


def _rare_dnf(p_var: float, n: int = 4) -> Dnf:
    w = VariableTable()
    for i in range(n):
        w.add(("x", i), {1: p_var, 0: 1 - p_var})
    clauses = [Condition({("x", i): 1, ("x", (i + 1) % n): 1}) for i in range(n)]
    return Dnf(clauses, w)


def _mean_relative_errors(p_var: float, budget: int, runs: int = 12):
    dnf = _rare_dnf(p_var)
    truth = float(probability_by_decomposition(dnf))
    kl_err, mc_err = 0.0, 0.0
    for seed in range(runs):
        kl = BatchKarpLubySampler(dnf, rng=seed)
        kl.run(budget)
        kl_err += abs(kl.estimate - truth) / truth
        mc = batch_naive_confidence(dnf, budget, rng=500 + seed)
        mc_err += abs(mc.estimate - truth) / truth
    return kl_err / runs, mc_err / runs, truth


def test_karp_luby_wins_and_gap_widens_as_p_shrinks():
    gaps = []
    for p_var in (0.3, 0.1, 0.03):
        kl, mc, truth = _mean_relative_errors(p_var, budget=3000)
        assert kl < mc, f"KL should beat naive MC at p≈{truth:.2g}"
        gaps.append(mc / max(kl, 1e-12))
    assert gaps[-1] > gaps[0]  # rarer events → bigger win
