"""The Karp–Luby Monte Carlo estimator and FPRAS for tuple confidence.

Section 4 of the paper, after Karp & Luby (FOCS 1983).  Given a
disjunction F of partial functions with member weights p_f and
M = Σ p_f, one trial of the estimator (Definition 4.1):

1. choose f ∈ F with probability p_f / M,
2. extend f to a total assignment f* by sampling every other variable
   from W,
3. output 1 iff f is the *smallest-index* member of F consistent
   with f*.

The trial mean is an unbiased estimator of p/M, so p̂ = X·M/m.  Since
p/M ≥ 1/|F|, the Chernoff bound gives δ(ε) ≤ 2·e^{−m·ε²/(3|F|)} and
m = ⌈3·|F|·ln(2/δ)/ε²⌉ trials suffice for an (ε, δ) guarantee — a fully
polynomial-time randomized approximation scheme (Proposition 4.2).

:class:`KarpLubySampler` supports *incremental* use (draw more trials
later and re-read the estimate); the Figure 3 predicate-approximation
algorithm depends on exactly that.

**Reference implementation.**  :class:`KarpLubySampler` and
:func:`approximate_confidence` draw one trial per Python iteration and
have no production caller: the engine samples through
:mod:`repro.confidence.batch`, and the batch tests compare against
these.  :class:`KarpLubyEstimate` is the result type both share.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from repro.confidence import bounds
from repro.confidence.dnf import Dnf
from repro.util.rng import ensure_rng

__all__ = ["KarpLubySampler", "KarpLubyEstimate", "approximate_confidence"]


@dataclass(frozen=True)
class KarpLubyEstimate:
    """Result of a Karp–Luby run.

    ``estimate`` is p̂ = X·M/m; ``eps``/``delta`` echo the requested
    guarantee when the run came from :func:`approximate_confidence`
    (``None`` for manual runs); ``exact`` marks degenerate disjunctions
    (empty, trivially true, or single-member) where p̂ is exactly p.
    """

    estimate: float
    samples: int
    positives: int
    total_weight: float
    size: int
    eps: float | None = None
    delta: float | None = None
    exact: bool = False

    def error_bound(self, eps: float) -> float:
        """δ(ε) for this run's sample count (0 when the value is exact)."""
        if self.exact:
            return 0.0
        return bounds.karp_luby_error_bound(eps, self.samples, self.size)


class KarpLubySampler:
    """Incremental Karp–Luby estimation for one disjunction.

    Degenerate disjunctions are handled exactly:

    * empty F                     → p = 0,
    * F containing the empty condition → p = 1,
    * |F| = 1                     → p = p_f  (the estimator would always
      return 1, so p̂ = M = p_f deterministically).
    """

    def __init__(self, dnf: Dnf, rng: random.Random | int | None = None):
        """Prepare estimation state for ``dnf``; ``rng`` seeds the draws."""
        self.dnf = dnf
        self.rng = ensure_rng(rng)
        self.trials = 0
        self.positives = 0
        self._weights_float = [float(p) for p in dnf.weights]
        self._cumulative = list(accumulate(self._weights_float))
        self._total = self._cumulative[-1] if self._cumulative else 0.0
        self._variables = sorted(dnf.variables, key=repr)
        if self.dnf.is_trivially_true:
            self._exact_value: float | None = 1.0
        elif self.dnf.is_empty:
            self._exact_value = 0.0
        elif self.dnf.size == 1:
            self._exact_value = self._total
        else:
            self._exact_value = None

    # ------------------------------------------------------------- trials
    @property
    def is_exact(self) -> bool:
        """True when the confidence is known exactly without sampling."""
        return self._exact_value is not None

    def draw(self) -> int:
        """One trial of the Definition 4.1 estimator (0 or 1)."""
        dnf, rng = self.dnf, self.rng
        # Step 1: pick a member with probability p_f / M.
        u = rng.random() * self._total
        index = bisect_right(self._cumulative, u)
        if index >= dnf.size:
            index = dnf.size - 1
        member = dnf.members[index]
        # Step 2: extend to a total assignment on the variables of F.
        world = dnf.w.sample_extension(member, self._variables, rng)
        # Step 3: 1 iff `member` is the smallest-index consistent member.
        first = dnf.first_consistent_index(world)
        outcome = 1 if first == index else 0
        self.trials += 1
        self.positives += outcome
        return outcome

    def run(self, n_trials: int) -> None:
        """Accumulate ``n_trials`` further trials."""
        for _ in range(n_trials):
            self.draw()

    # ------------------------------------------------------------- readout
    @property
    def estimate(self) -> float:
        """p̂ = X·M/m (or the exact value for degenerate disjunctions)."""
        if self._exact_value is not None:
            return self._exact_value
        if self.trials == 0:
            raise RuntimeError("no trials drawn yet")
        return self.positives * self._total / self.trials

    def error_bound(self, eps: float) -> float:
        """δ(ε) = 2·e^{−m·ε²/(3|F|)} for the trials drawn so far."""
        if self._exact_value is not None:
            return 0.0
        return bounds.karp_luby_error_bound(eps, self.trials, self.dnf.size)

    def snapshot(self, eps: float | None = None, delta: float | None = None) -> KarpLubyEstimate:
        """Freeze the current state into a :class:`KarpLubyEstimate`."""
        return KarpLubyEstimate(
            estimate=self.estimate,
            samples=self.trials,
            positives=self.positives,
            total_weight=self._total,
            size=self.dnf.size,
            eps=eps,
            delta=delta,
            exact=self._exact_value is not None,
        )


def approximate_confidence(
    dnf: Dnf,
    eps: float,
    delta: float,
    rng: random.Random | int | None = None,
) -> KarpLubyEstimate:
    """The (ε, δ) FPRAS of Proposition 4.2.

    Runs m = ⌈3·|F|·ln(2/δ)/ε²⌉ Karp–Luby trials and returns p̂ with
    Pr[|p̂ − p| ≥ ε·p] ≤ δ.
    """
    sampler = KarpLubySampler(dnf, rng)
    if sampler.is_exact:
        return sampler.snapshot(eps, delta)
    m = bounds.karp_luby_sample_size(eps, delta, dnf.size)
    sampler.run(m)
    return sampler.snapshot(eps, delta)
