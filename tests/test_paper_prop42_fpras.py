"""E5 — Proposition 4.2: the Karp–Luby FPRAS and its (ε, δ) guarantee.

Shape claims regenerated:

* empirical relative-error failure rate ≤ δ (Chernoff is conservative,
  so the observed rate is far below);
* the sample size m = ⌈3|F|·ln(2/δ)/ε²⌉ is linear in |F|, logarithmic
  in 1/δ, quadratic in 1/ε — the fully-polynomial part of "FPRAS".
"""

from __future__ import annotations

import random

from repro.confidence import (
    batch_approximate_confidence,
    karp_luby_sample_size,
    probability_by_decomposition,
)
from repro.generators.hard import bipartite_2dnf


def test_guarantee_failure_rate_below_delta():
    dnf = bipartite_2dnf(4, 4, edge_probability=0.5, rng=3)
    truth = float(probability_by_decomposition(dnf))
    eps = delta = 0.25
    rng = random.Random(99)
    runs, failures = 80, 0
    for _ in range(runs):
        est = batch_approximate_confidence(dnf, eps, delta, rng)
        if abs(est.estimate - truth) >= eps * truth:
            failures += 1
    assert failures / runs <= delta  # observed ≤ guaranteed


def test_sample_size_scalings():
    base = karp_luby_sample_size(0.1, 0.1, 10)
    assert karp_luby_sample_size(0.1, 0.1, 20) >= 1.95 * base  # linear |F|
    assert karp_luby_sample_size(0.05, 0.1, 10) >= 3.9 * base  # 1/ε²
    log_growth = karp_luby_sample_size(0.1, 0.01, 10) / base
    assert 1.0 < log_growth < 2.0  # ln(2/δ) growth only
