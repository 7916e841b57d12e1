"""Chernoff-bound machinery for the Karp–Luby FPRAS and Sections 5–6.

The paper instantiates the Chernoff bound (Mitzenmacher–Upfal Eq. 4.6)

    Pr[|X − E[X]| ≥ ε·E[X]] ≤ 2·e^{−ε²·E[X]/3}

to obtain, for m Karp–Luby trials on a disjunction of size |F|,

    δ(ε) = Pr[|p̂ − p| ≥ ε·p] ≤ 2·e^{−m·ε²/(3·|F|)}            (Section 4)

and the balanced per-value bound of the Figure 3 algorithm,

    δ′(ε, l) = 2·e^{−l·ε²/3}                                    (Section 5)

where l is the number of outer-loop rounds (each round spends |F_i|
estimator invocations per value, so m_i = l·|F_i|).  All inverse forms
(sample sizes, round counts) are here too, so every module quotes the
same formulas.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

__all__ = [
    "karp_luby_error_bound",
    "karp_luby_sample_size",
    "delta_prime",
    "rounds_for",
    "eps_for_rounds",
    "combine_union",
    "combine_independent",
]


def karp_luby_error_bound(eps: float, m: int, size_f: int) -> float:
    """δ(ε) = 2·e^{−m·ε²/(3·|F|)}: error bound after m trials (Section 4).

    For ``|F| = 0`` (empty disjunction) or ``eps <= 0`` the estimate is not
    probabilistic in a useful sense; we return the vacuous bound 1.0 capped
    below by the formula where defined.
    """
    if size_f <= 0 or eps <= 0:
        return 1.0
    if m <= 0:
        return 1.0
    return min(1.0, 2.0 * math.exp(-(m * eps * eps) / (3.0 * size_f)))


def karp_luby_sample_size(eps: float, delta: float, size_f: float) -> int:
    """m = ⌈3·r·ln(2/δ) / ε²⌉: trials for an (ε, δ) guarantee (Section 4).

    ``size_f`` is r, any proven bound on M/p (M = Σ p_f): the Chernoff
    argument needs only that the trial mean p/M is at least 1/r.  The
    paper takes r = |F|, since p ≥ max_f p_f ≥ M/|F|; a guaranteed lower
    bound L ≤ p gives the smaller r = M/L
    (:func:`repro.confidence.batch.karp_luby_ratio`).
    """
    if not 0 < eps:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if size_f <= 0:
        return 0
    return math.ceil(3.0 * size_f * math.log(2.0 / delta) / (eps * eps))


def delta_prime(eps: float, rounds: int) -> float:
    """δ′(ε, l) = 2·e^{−l·ε²/3}: balanced per-value bound (Sections 5–6)."""
    if eps <= 0 or rounds <= 0:
        return 1.0
    return min(1.0, 2.0 * math.exp(-(rounds * eps * eps) / 3.0))


def rounds_for(eps: float, delta: float) -> int:
    """The smallest l with δ′(ε, l) ≤ δ, i.e. l = ⌈3·ln(2/δ)/ε²⌉.

    Theorem 6.7 uses l₀ ≥ 3·log(2·k·d·n^{kd}/δ)/ε₀².
    """
    if not 0 < eps:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    return math.ceil(3.0 * math.log(2.0 / delta) / (eps * eps))


def eps_for_rounds(delta: float, rounds: int) -> float:
    """The ε at which l rounds reach bound δ (inverse of :func:`delta_prime`)."""
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    return math.sqrt(3.0 * math.log(2.0 / delta) / rounds)


def combine_union(deltas: Iterable[float]) -> float:
    """Union bound Σδᵢ, capped at 1 (Lemma 5.1, general case)."""
    return min(1.0, sum(deltas))


def combine_independent(deltas: Iterable[float]) -> float:
    """1 − Π(1−δᵢ): the sharper bound for independent estimates (Lemma 5.1).

    "The independence assumption is often realistic if the pᵢ are the
    results of an approximate computation on a reliable input", e.g.
    independent Karp–Luby runs.
    """
    prod = 1.0
    for d in deltas:
        prod *= max(0.0, 1.0 - d)
    return min(1.0, 1.0 - prod)
