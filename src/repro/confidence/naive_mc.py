"""Naive Monte-Carlo confidence estimation — the baseline Karp–Luby beats.

The obvious estimator samples a full world from W and checks whether any
member of F is satisfied; the mean over m worlds estimates p directly.
Its guarantee is only *additive* (Hoeffding): to certify a relative
error ε on a tuple of confidence p one needs m = Θ(1/(p·ε²)) samples —
unbounded as p → 0 — whereas Karp–Luby needs m = O(|F|·ln(2/δ)/ε²)
*independent of p*.  Benchmark E6 measures exactly this gap; MystiQ-style
systems [7, 16] use Monte-Carlo simulation of this general flavour, which
is why the paper adopts Karp–Luby instead.

**Reference implementation.**  :func:`naive_confidence` draws one world
per Python iteration and has no production caller: the ``naive-mc``
strategy samples through :mod:`repro.confidence.batch`, and the batch
tests compare against this.  :class:`NaiveEstimate` and
:func:`naive_sample_size_additive` are shared with the batch engine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.confidence.dnf import Dnf
from repro.util.rng import ensure_rng

__all__ = ["NaiveEstimate", "naive_confidence", "naive_sample_size_additive"]


@dataclass(frozen=True)
class NaiveEstimate:
    """Result of a naive Monte-Carlo run."""

    estimate: float
    samples: int
    positives: int

    def additive_error_bound(self, eps_abs: float) -> float:
        """Hoeffding: Pr[|p̂ − p| ≥ ε_abs] ≤ 2·e^{−2·m·ε_abs²}."""
        if eps_abs <= 0 or self.samples <= 0:
            return 1.0
        return min(1.0, 2.0 * math.exp(-2.0 * self.samples * eps_abs * eps_abs))


def naive_sample_size_additive(eps_abs: float, delta: float) -> int:
    """m = ⌈ln(2/δ) / (2·ε_abs²)⌉ for an additive (ε_abs, δ) guarantee."""
    if eps_abs <= 0:
        raise ValueError("eps_abs must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0,1)")
    return math.ceil(math.log(2.0 / delta) / (2.0 * eps_abs * eps_abs))


def naive_confidence(
    dnf: Dnf, samples: int, rng: random.Random | int | None = None
) -> NaiveEstimate:
    """Estimate p by sampling ``samples`` full worlds over vars(F)."""
    generator = ensure_rng(rng)
    if dnf.is_trivially_true:
        return NaiveEstimate(1.0, 0, 0)
    if dnf.is_empty:
        return NaiveEstimate(0.0, 0, 0)
    variables = sorted(dnf.variables, key=repr)
    positives = 0
    for _ in range(samples):
        world = {v: dnf.w.sample_value(v, generator) for v in variables}
        if dnf.evaluate(world):
            positives += 1
    return NaiveEstimate(positives / samples if samples else 0.0, samples, positives)
