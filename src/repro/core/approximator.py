"""The adaptive predicate-approximation algorithm of Figure 3 (Theorem 5.8).

Problem (Section 5): given k approximable values p₁,…,p_k — here tuple
confidences, each with a Karp–Luby estimator over a disjunction Fᵢ — and
a predicate φ over them, decide φ(p₁,…,p_k) with error probability ≤ δ.

The naive procedure fixes ε = ε₀ up front and samples each value to the
full (ε₀, δ) budget.  The Figure 3 algorithm instead interleaves:

    foreach i:  Xᵢ := 0; mᵢ := 0
    do {
        foreach i:  run |Fᵢ| Karp–Luby trials;  p̂ᵢ := Xᵢ·Mᵢ/mᵢ
        ψ := φ  if φ(p̂₁,…,p̂_k) else ¬φ
        ε := max(ε₀, ε_ψ(p̂₁,…,p̂_k))
    } until Σᵢ δᵢ(ε) ≤ δ
    output φ(p̂₁,…,p̂_k), error bound min(0.5, Σᵢ δᵢ(ε))

Because ε_ψ grows as the estimates move away from the decision boundary,
the loop usually stops long before the naive ε₀ budget — by close to a
factor (ε_φ² − ε₀²)/ε_φ² (end of Section 5; measured in benchmark E12).
If the true point is not an ε₀-singularity the output is correct with
probability ≥ 1 − δ (Theorem 5.8); if it is, the algorithm still
terminates (ε is clamped below by ε₀) and honestly reports that it never
achieved separation (``suspected_singularity``).
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass

from repro.algebra.expressions import BoolExpr, attributes, substitute_constants
from repro.confidence.bounds import rounds_for
from repro.confidence.dissociation import BoundInterval, dissociation_interval
from repro.confidence.dnf import Dnf
from repro.core.certify import certify_predicate
from repro.core.linear import (
    NonLinearError,
    clamp_epsilon,
    epsilon_for_predicate,
    is_linear,
)
from repro.core.readonce import duplicate_variables, epsilon_by_corners, is_read_once
from repro.core.values import (
    ApproximableValue,
    ExactValue,
    KarpLubyValue,
    as_approximable,
)
from repro.util.rng import ensure_rng, spawn_rng

__all__ = [
    "PredicateDecision",
    "PredicateApproximator",
    "approximate_predicate",
    "decide_candidates_shard",
]


@dataclass(frozen=True)
class PredicateDecision:
    """Outcome of one predicate approximation.

    ``value``                 φ(p̂₁,…,p̂_k) at the final estimates.
    ``error_bound``           min(0.5, Σᵢ δᵢ(ε)) as output by Figure 3
                              (0.0 when every value was exact).
    ``eps``                   the final ε = max(ε₀, ε_ψ(p̂)).
    ``eps_psi``               ε_ψ(p̂) itself (may be < ε₀).
    ``rounds``                iterations l of the outer loop.
    ``total_trials``          Karp–Luby invocations summed over values.
    ``estimates``             final p̂ per variable name.
    ``suspected_singularity`` the loop ended with ε_ψ < ε₀, i.e. the
                              estimates never separated from the decision
                              boundary — the signature of an
                              ε₀-singularity (Definition 5.6).
    ``exact``                 all inputs were exact; the decision is
                              deterministic.
    ``certified_by_bounds``   the decision came from guaranteed
                              dissociation bound intervals alone — no
                              trial was drawn, and the error bound is a
                              true 0 (not merely an (ε, δ) statement).
    """

    value: bool
    error_bound: float
    eps: float
    eps_psi: float
    rounds: int
    total_trials: int
    estimates: dict[str, float]
    suspected_singularity: bool
    exact: bool
    certified_by_bounds: bool = False


class PredicateApproximator:
    """Reusable Figure 3 runner for one predicate over named approximable values.

    ``values`` maps variable names (as used in ``predicate``) to either a
    :class:`~repro.confidence.dnf.Dnf` (estimated by Karp–Luby — the
    paper's case), any :class:`~repro.core.values.ApproximableValue`
    (e.g. the online-aggregation means of
    :class:`~repro.core.values.HoeffdingMeanValue`), or a plain number.
    ``constants`` supplies exact attribute values (database constants are
    "viewed as constants for the purpose of the previous lemma").  Each
    DNF gets an independent randomness stream, matching the independence
    remark under Lemma 5.1.

    ``epsilon_method``: "linear" (Theorem 5.2 closed form), "corners"
    (Theorem 5.5 binary search, read-once predicates), or "auto" (linear,
    falling back to corners on non-linear predicates).

    ``bounds_budget`` (``None``/0 disables) seeds every Karp–Luby value
    with its guaranteed dissociation bound interval: values
    whose interval is a *point* become exact constants outright, and
    :meth:`decide`/:meth:`run_rounds` first try to certify the predicate
    over the interval box (:func:`repro.core.certify.certify_predicate`)
    — a certified candidate never draws a trial.  The seeding happens
    after all randomness streams are spawned, so enabling bounds never
    shifts the trial streams of values that still sample.

    ``intervals`` (value name →
    :class:`~repro.confidence.dissociation.BoundInterval`) hands over
    enclosures the caller already holds: σ̂ asks its evaluator's
    enclosure seam once for all its candidates and ships each one its
    intervals, so nothing is solved per candidate (or per doubling of
    the Theorem 6.7 driver).  Only a standalone caller that gives just a
    ``bounds_budget`` has the missing ones solved here
    (:func:`repro.confidence.dissociation.dissociation_interval`).
    Where an interval comes from cannot change a decision or a trial:
    it is a pure function of the disjunction and the budget.
    """

    def __init__(
        self,
        predicate: BoolExpr,
        values: Mapping[str, "ApproximableValue | Dnf | float"],
        eps0: float,
        rng: random.Random | int | None = None,
        constants: Mapping[str, object] | None = None,
        epsilon_method: str = "auto",
        executor=None,
        bounds_budget: int | None = None,
        intervals: Mapping[str, BoundInterval] | None = None,
    ):
        if not 0 < eps0 < 1:
            raise ValueError(f"eps0 must be in (0, 1), got {eps0}")
        if epsilon_method not in ("auto", "linear", "corners"):
            raise ValueError(f"unknown epsilon_method {epsilon_method!r}")
        self.predicate = predicate
        self.eps0 = eps0
        self.constants = dict(constants or {})
        self.epsilon_method = epsilon_method
        self.bounds_budget = bounds_budget
        generator = ensure_rng(rng)
        missing = attributes(predicate) - set(values) - set(self.constants)
        if missing:
            raise ValueError(
                f"predicate mentions {sorted(missing)} but no values/constants given"
            )
        self.samplers: dict[str, ApproximableValue] = {
            name: as_approximable(value, spawn_rng(generator), executor=executor)
            for name, value in sorted(values.items())
        }
        self.aliases: dict[str, str] = {}
        self._maybe_duplicate_variables(generator)
        self._bounds_substituted = False
        self._seed_bound_intervals(intervals or {})

    def _maybe_duplicate_variables(self, generator: random.Random) -> None:
        """Apply the Section 5 duplication trick when it is needed.

        Non-linear predicates fall back to the Theorem 5.5 corner method,
        which requires each variable to occur once.  When a *stochastic*
        variable repeats in such a predicate, every occurrence is given
        its own independently-refined estimator clone — "approximate the
        same value twice (yielding a value with an independent error)".
        Linear predicates never need this (Theorem 5.2 handles repeats by
        collecting coefficients), and exact constants are substituted
        before the check so they cannot trigger it.
        """
        if self.epsilon_method == "linear":
            return
        effective = substitute_constants(self.predicate, self.constants)
        if self.epsilon_method == "auto" and is_linear(effective):
            return
        stochastic_repeats = {
            name
            for name in attributes(effective)
            if name in self.samplers and not self.samplers[name].is_exact
        }
        if is_read_once(effective) or not stochastic_repeats:
            return
        new_predicate, _point, aliases = duplicate_variables(effective)
        relevant = {a: o for a, o in aliases.items() if o in self.samplers}
        if not relevant:
            return
        self.predicate = new_predicate
        self.aliases = relevant
        for fresh, original in sorted(relevant.items()):
            self.samplers[fresh] = self.samplers[original].clone(
                spawn_rng(generator)
            )
        for original in set(relevant.values()):
            del self.samplers[original]

    def _seed_bound_intervals(self, intervals: Mapping[str, BoundInterval]) -> None:
        """Attach dissociation bound intervals to the Karp–Luby values.

        Runs strictly *after* every ``spawn_rng`` of ``__init__`` (per-
        value streams and duplication clones), so the substitution of
        point-interval values by exact constants cannot shift any
        surviving value's randomness stream: pruned and unpruned runs
        draw identical trials for everything that still samples.
        """
        if not self.bounds_budget:
            return
        for name, sampler in sorted(self.samplers.items()):
            if isinstance(sampler, KarpLubyValue) and not sampler.is_exact:
                # A duplicated occurrence is enclosed under its original's name.
                interval = intervals.get(self.aliases.get(name, name))
                if interval is None:
                    interval = dissociation_interval(sampler.dnf, self.bounds_budget)
                sampler.interval = interval
                if interval.is_exact:
                    self.samplers[name] = ExactValue(float(interval.lower))
                    self._bounds_substituted = True

    def certify_by_bounds(self) -> bool | None:
        """Decide the predicate from guaranteed intervals alone, if possible.

        Builds the box of exact points (constants, exact values) and
        seeded bound intervals and evaluates the predicate over it with
        three-valued interval logic.  ``True``/``False`` is a *certain*
        decision — the true confidences lie inside the box — and
        ``None`` means the box straddles the predicate (or bounds are
        disabled) and Figure 3 must sample.
        """
        if not self.bounds_budget:
            return None
        env: dict[str, object] = dict(self.constants)
        for name, sampler in self.samplers.items():
            if sampler.is_exact:
                env[name] = sampler.estimate
            elif isinstance(sampler, KarpLubyValue) and sampler.interval is not None:
                env[name] = sampler.interval
        return certify_predicate(self.predicate, env)

    def _certified_decision(self, value: bool) -> PredicateDecision:
        estimates: dict[str, float] = {}
        for name, sampler in self.samplers.items():
            if (
                not sampler.is_exact
                and isinstance(sampler, KarpLubyValue)
                and sampler.interval is not None
            ):
                # No trial was drawn; the interval midpoint is the best
                # available point summary of the undecided confidence.
                estimates[name] = float(sampler.interval.midpoint)
            elif sampler.is_exact or sampler.trials:
                estimates[name] = float(sampler.estimate)
            else:
                estimates[name] = math.nan
        return PredicateDecision(
            value=value,
            error_bound=0.0,
            eps=self.eps0,
            eps_psi=math.inf,
            rounds=0,
            total_trials=sum(s.trials for s in self.samplers.values()),
            estimates=estimates,
            suspected_singularity=False,
            exact=not self._stochastic,
            certified_by_bounds=True,
        )

    # ---------------------------------------------------------------- guts
    @property
    def _stochastic(self) -> list[str]:
        return [n for n, s in self.samplers.items() if not s.is_exact]

    def _point(self) -> dict[str, object]:
        point: dict[str, object] = dict(self.constants)
        for name, sampler in self.samplers.items():
            point[name] = sampler.estimate
        return point

    def _epsilon_psi(self, point: Mapping[str, object]) -> float:
        """ε_ψ(p̂): homogeneity radius of the predicate's current truth value.

        Exact values (constants and degenerate disjunctions) are pinned
        into the predicate first — "exact attribute values from the
        database can be viewed as constants" — so the corner method only
        ever sees the genuinely stochastic variables.
        """
        pinned: dict[str, object] = dict(self.constants)
        for name, sampler in self.samplers.items():
            if sampler.is_exact:
                pinned[name] = sampler.estimate
        effective = (
            substitute_constants(self.predicate, pinned) if pinned else self.predicate
        )
        if not attributes(effective):
            return math.inf  # predicate is constant: homogeneous everywhere
        if self.epsilon_method in ("auto", "linear"):
            try:
                return epsilon_for_predicate(effective, point)
            except NonLinearError:
                if self.epsilon_method == "linear":
                    raise
        return epsilon_by_corners(effective, point)

    def _one_round(self) -> None:
        """The Figure 3 loop body: one refinement batch per stochastic value
        (for Karp–Luby values: |Fᵢ| estimator invocations)."""
        for name in self._stochastic:
            self.samplers[name].refine()

    def _error_sum(self, eps: float) -> float:
        return sum(s.error_bound(eps) for s in self.samplers.values())

    def _decision(self, rounds: int) -> PredicateDecision:
        point = self._point()
        value = bool(self.predicate.evaluate(point))
        stochastic = self._stochastic
        # With every value pinned the predicate is constant: ε_ψ = ∞.
        eps_psi = self._epsilon_psi(point) if stochastic else math.inf
        eps = max(self.eps0, clamp_epsilon(eps_psi))
        error = 0.0 if not stochastic else min(0.5, self._error_sum(eps))
        # A decision whose every stochastic value collapsed to an exact
        # dissociation bound was decided by bounds alone — no trial drawn.
        certified = self._bounds_substituted and not stochastic
        return PredicateDecision(
            value=value,
            error_bound=error,
            eps=eps,
            eps_psi=eps_psi,
            rounds=rounds,
            total_trials=sum(s.trials for s in self.samplers.values()),
            estimates={n: float(s.estimate) for n, s in self.samplers.items()},
            suspected_singularity=bool(stochastic) and eps_psi < self.eps0,
            exact=not stochastic,
            certified_by_bounds=certified,
        )

    # ---------------------------------------------------------------- API
    def decide(self, delta: float, max_rounds: int | None = None) -> PredicateDecision:
        """Run Figure 3 until Σᵢ δᵢ(ε) ≤ δ.

        Guaranteed to terminate: ε ≥ ε₀ always, so at most
        ⌈3·ln(2k/δ)/ε₀²⌉ rounds are needed even at a singularity.
        """
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0,1), got {delta}")
        stochastic = self._stochastic
        if not stochastic:
            return self._decision(rounds=0)
        certified = self.certify_by_bounds()
        if certified is not None:
            return self._certified_decision(certified)
        if max_rounds is None:
            # Natural worst-case bound (+1 slack for float edges).
            max_rounds = rounds_for(self.eps0, delta / len(stochastic)) + 1
        rounds = 0
        while True:
            self._one_round()
            rounds += 1
            point = self._point()
            eps_psi = self._epsilon_psi(point)
            eps = max(self.eps0, clamp_epsilon(eps_psi))
            if self._error_sum(eps) <= delta or rounds >= max_rounds:
                return self._decision(rounds)

    def run_rounds(self, rounds: int) -> PredicateDecision:
        """Fixed-budget mode: exactly ``rounds`` outer-loop iterations.

        Used by the Section 6 query driver (Theorem 6.7), which controls
        a global round budget l and doubles it across evaluations; the
        reported bound is then Σᵢ δ′(max(ε_ψ, ε₀), l) ≤ k·δ′(max(ε_φ,ε₀), l)
        exactly as in Lemma 6.4(2).

        Because the budget is fixed up front, the whole allocation —
        ``rounds``·|Fᵢ| trials for each stochastic value — is handed to
        the value in one :meth:`~repro.core.values.ApproximableValue.refine_many`
        call, which batch-backed estimators draw as a single block.
        """
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        if not self._stochastic:
            return self._decision(rounds=0)
        certified = self.certify_by_bounds()
        if certified is not None:
            return self._certified_decision(certified)
        for name in self._stochastic:
            self.samplers[name].refine_many(rounds)
        return self._decision(rounds)


def decide_candidates_shard(
    specs: list[
        tuple[Mapping[str, "Dnf"], Mapping[str, object], int, Mapping[str, BoundInterval] | None]
    ],
    predicate: BoolExpr,
    eps0: float,
    rounds: int | None,
    decision_delta: float | None,
    epsilon_method: str,
    bounds_budget: int | None = None,
) -> list[PredicateDecision]:
    """Decide one shard of σ̂ candidate tuples (module level: pickles).

    Each spec is ``(values, constants, seed, intervals)`` for one
    candidate of an approximate selection; the seed was derived from the
    candidate's *position* in the (sorted) candidate order by
    :func:`repro.util.parallel.shard_seed`, so every worker count
    replays identical streams, and the intervals are the enclosures the
    parent already obtained for the candidate's values (``None``:
    pruning is off).  The per-candidate Figure 3 runs never
    nest a pool of their own (their values draw on the process-wide
    serial executor): each candidate's trial allocation is one worker's
    work by construction, which is exactly what makes candidate fan-out
    profitable for wide selections where per-value trial sharding has
    nothing left to cut.
    """
    decisions = []
    for values, constants, seed, intervals in specs:
        approximator = PredicateApproximator(
            predicate,
            values,
            eps0,
            random.Random(seed),
            constants=constants,
            epsilon_method=epsilon_method,
            bounds_budget=bounds_budget,
            intervals=intervals,
        )
        if rounds is not None:
            decisions.append(approximator.run_rounds(rounds))
        else:
            decisions.append(approximator.decide(decision_delta))
    return decisions


def approximate_predicate(
    predicate: BoolExpr,
    values: Mapping[str, "ApproximableValue | Dnf | float"],
    eps0: float,
    delta: float,
    rng: random.Random | int | None = None,
    constants: Mapping[str, object] | None = None,
    epsilon_method: str = "auto",
    executor=None,
    bounds_budget: int | None = None,
) -> PredicateDecision:
    """One-shot Figure 3 run (see :class:`PredicateApproximator`)."""
    approximator = PredicateApproximator(
        predicate,
        values,
        eps0,
        rng,
        constants,
        epsilon_method,
        executor=executor,
        bounds_budget=bounds_budget,
    )
    return approximator.decide(delta)
