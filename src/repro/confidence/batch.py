"""Vectorized batch Monte Carlo trials — Proposition 4.2 at block granularity.

The Karp–Luby FPRAS (Proposition 4.2: m = ⌈3·|F|·ln(2/δ)/ε²⌉ trials give
Pr[|p̂ − p| ≥ ε·p] ≤ δ) and the naive world-sampling baseline both reduce
to drawing many independent trials over the same disjunction F.  This
module — the engine's only sampler — draws a *block* of trials at once
and evaluates every clause against the whole block with boolean array
operations:

* variables are integer-coded against their W-table domains, so a block
  of m world assignments is an (m × |vars(F)|) matrix of narrow codes,
  sampled column-by-column through each variable's cumulative distribution;
* Definition 4.1's extension step is one gather of the (|F| × |vars(F)|)
  clause-code table by the chosen clauses;
* clause satisfaction is one (m × literals) equality matrix, its columns
  ANDed per clause length — the "smallest-index consistent member" test
  becomes an ``argmax`` over the (m × |F|) satisfaction matrix;
* the estimator's statistics (X positives out of m trials) accumulate
  across blocks, preserving the *incremental* draw-more-trials contract
  that the Figure 3 predicate-approximation algorithm depends on.

The block primitives are numpy array programs, deterministic under a
fixed seed.

The naive baseline samples whole worlds and checks whether any member
of F holds.  Its guarantee is only *additive* (Hoeffding): certifying a
relative error ε on a tuple of confidence p takes m = Θ(1/(p·ε²)) worlds,
unbounded as p → 0, whereas Karp–Luby needs m = O(|F|·ln(2/δ)/ε²)
independent of p — the reason the paper adopts Karp–Luby.
:func:`shared_block_confidences` evaluates *many* disjunctions against
one shared block of world samples — the draw-once, evaluate-everything
pattern behind ``ProbDB.confidence_all``; :func:`batch_naive_confidence`
is its one-disjunction case.

Every block entry point cuts its trial budget by one fixed plan
(:func:`~repro.util.parallel.plan_trials`), draws block ``i`` from a
generator seeded by ``(one parent draw, i)``
(:func:`~repro.util.parallel.shard_seed`), in process, and merges the
block statistics by trial-count weighting (positives and trials simply
sum, so the estimate X·M/m is the weighted mean of the block
estimates).  Results depend on the budget and the parent draw only —
never on a worker count or a shard plan.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.confidence import bounds
from repro.confidence.dnf import Dnf
from repro.urel.conditions import Var
from repro.util.parallel import plan_trials, shard_seed
from repro.util.rng import ensure_rng
from repro.worlds.database import Prob

__all__ = [
    "BatchKarpLubySampler",
    "KarpLubyEstimate",
    "NaiveEstimate",
    "batch_approximate_confidence",
    "batch_naive_confidence",
    "karp_luby_ratio",
    "naive_sample_size_additive",
    "shared_block_confidences",
]


# --------------------------------------------------------------------------
# Result types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KarpLubyEstimate:
    """Result of a Karp–Luby run.

    ``estimate`` is p̂ = X·M/m; ``eps``/``delta`` echo the requested
    guarantee when the run came from :func:`batch_approximate_confidence`
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


# --------------------------------------------------------------------------
# Integer coding of a disjunction against its W-table domains
# --------------------------------------------------------------------------


class _EncodedDnf:
    """A :class:`Dnf` lowered to integer codes for block evaluation.

    ``variables`` fixes a column order (sorted by ``repr``); each
    variable's domain values map to codes ``0..k−1`` in the W table's
    iteration order, so sampling a value is one inverse-CDF lookup.
    Clause (variable, value) pairs become (column, code) pairs; a value
    outside its variable's domain gets the sentinel code −1, which no
    sampled world ever matches (the clause has weight 0 and is
    unsatisfiable).

    F is a set (Section 4), so the clauses are indexed in an order of
    the data, not of ``dnf.members``: ascending by their (column, code)
    pair tuples.  ``order`` lists the member index of each clause in
    that order; Definition 4.1's "smallest index" and the cumulative
    weights follow it.  Two members with equal pair tuples are
    interchangeable (both out of domain, weight 0), so ties cannot show.

    The block kernels read numpy tables built from those, ``int8``-coded
    unless some domain has 127 values or more: ``fixed`` (clause codes, −2
    where a clause leaves the column free), the distinct ``literal_*``,
    ``groups`` (per clause length ℓ, clause indices and (ℓ × clauses)
    literal indices), and the cumulative ``edges`` / ``weight_edges`` less
    the last.
    """

    __slots__ = (
        "variables",
        "cumulative_probs",
        "order",
        "member_pairs",
        "cumulative_weights",
        "total_weight",
        "fixed",
        "edges",
        "weight_edges",
        "literal_columns",
        "literal_codes",
        "groups",
    )

    def __init__(self, dnf: Dnf, variables: Sequence[Var] | None = None):
        """Encode ``dnf``; ``variables`` overrides the sorted column order."""
        self.variables = (
            sorted(dnf.variables, key=repr) if variables is None else list(variables)
        )
        var_index = {v: i for i, v in enumerate(self.variables)}
        self.cumulative_probs: list[list[float]] = []
        value_codes: list[dict] = []
        for var in self.variables:
            dist = dnf.w.distribution(var)
            self.cumulative_probs.append(list(accumulate(float(p) for p in dist.values())))
            value_codes.append({value: code for code, value in enumerate(dist)})
        pairs = [
            tuple(
                (var_index[var], value_codes[var_index[var]].get(value, -1))
                for var, value in sorted(member.items(), key=repr)
            )
            for member in dnf.members
        ]
        self.order = sorted(range(len(pairs)), key=pairs.__getitem__)
        self.member_pairs = [pairs[j] for j in self.order]
        weights = dnf.weights
        self.cumulative_weights = list(accumulate(float(weights[j]) for j in self.order))
        self.total_weight = self.cumulative_weights[-1] if self.cumulative_weights else 0.0
        dtype = np.int8 if all(len(cum) < 127 for cum in self.cumulative_probs) else np.int64
        self.edges = [np.array(cum[:-1]) for cum in self.cumulative_probs]
        self.weight_edges = np.array(self.cumulative_weights[:-1])
        self.fixed = np.full((len(self.member_pairs), len(self.variables)), -2, dtype=dtype)
        literals: dict[tuple[int, int], int] = {}
        by_length: dict[int, tuple[list[int], list[list[int]]]] = {}
        for j, pairs in enumerate(self.member_pairs):
            for column, code in pairs:
                self.fixed[j, column] = code
            clauses, indices = by_length.setdefault(len(pairs), ([], []))
            clauses.append(j)
            indices.append([literals.setdefault(pair, len(literals)) for pair in pairs])
        self.literal_columns = np.array([column for column, _ in literals], dtype=np.intp)
        self.literal_codes = np.array([code for _, code in literals], dtype=dtype)
        self.groups = [
            (np.array(clauses, dtype=np.intp), np.array(indices, dtype=np.intp).T)
            for _, (clauses, indices) in sorted(by_length.items())
        ]


# --------------------------------------------------------------------------
# NumPy block primitives
# --------------------------------------------------------------------------


def _np_sample_block(enc: _EncodedDnf, n: int, nrng):
    """An (n × |vars|) block of world assignments, one inverse-CDF per column.

    A code counts the column's edges at or below u; the dropped last edge clamps it.
    """
    block = np.empty((n, len(enc.edges)), dtype=enc.fixed.dtype)
    for column, edges in enumerate(enc.edges):
        u = nrng.random(n)
        if len(edges) == 1:
            block[:, column] = u >= edges[0]
        else:
            block[:, column] = np.searchsorted(edges, u, side="right")
    return block


def _np_satisfaction(enc: _EncodedDnf, block):
    """The (n × |F|) clause-satisfaction matrix for a block of worlds."""
    n = block.shape[0]
    equal = block[:, enc.literal_columns] == enc.literal_codes
    sat = None if len(enc.groups) == 1 else np.empty((n, len(enc.member_pairs)), dtype=bool)
    for clauses, literals in enc.groups:
        group = equal[:, literals[0]] if len(literals) else np.ones((n, len(clauses)), bool)
        for row in literals[1:]:
            group &= equal[:, row]
        if sat is None:
            return group
        sat[:, clauses] = group
    return sat


def _np_karp_luby_block(enc: _EncodedDnf, n: int, nrng) -> int:
    """Count positives among ``n`` Definition 4.1 trials, drawn as one block.

    Step 1 (member choice ∝ p_f) is an inverse-CDF over the clause
    weights; step 2 (extension sampling) draws the full block and then
    copies the chosen clauses' codes over it, one gather of ``fixed``;
    step 3 is ``argmax`` over the satisfaction matrix — the row's chosen
    clause is consistent by construction, so the first ``True`` index
    always exists and the trial succeeds iff it equals the choice.
    """
    u = nrng.random(n) * enc.total_weight
    choice = np.searchsorted(enc.weight_edges, u, side="right")
    block = _np_sample_block(enc, n, nrng)
    fixed = enc.fixed[choice]
    np.copyto(block, fixed, where=fixed != -2)
    del fixed
    first = _np_satisfaction(enc, block).argmax(axis=1)
    return int((first == choice).sum())


# --------------------------------------------------------------------------
# Per-block trial kernels (module level: top-k's race ships them to workers)
# --------------------------------------------------------------------------


def _karp_luby_trial_block(enc: _EncodedDnf, n: int, seed: int) -> int:
    """Count positives among ``n`` Definition 4.1 trials from a seeded block."""
    return _np_karp_luby_block(enc, n, np.random.default_rng(seed))


def _shared_trial_block(encoders: list[_EncodedDnf], n: int, seed: int) -> list[int]:
    """Per-disjunction positives against ONE seeded block of ``n`` worlds.

    The block is shared by every DNF (the same worlds, preserving the
    correlation structure of :func:`shared_block_confidences`); the
    blocks of one budget are independent and their counts merge by
    trial-count weighting.
    """
    block = _np_sample_block(encoders[0], n, np.random.default_rng(seed))
    return [int(_np_satisfaction(enc, block).any(axis=1).sum()) for enc in encoders]


def _map_trial_blocks(kernel, enc, n_trials: int, rng: random.Random) -> list:
    """Per-block ``kernel`` results for a budget cut by :func:`plan_trials`.

    One parent draw seeds the whole budget; block ``i`` draws from
    ``shard_seed(base, i)``, in the calling process.
    """
    base = rng.getrandbits(64)
    return [
        kernel(enc, count, shard_seed(base, i))
        for i, count in enumerate(plan_trials(n_trials))
    ]


# --------------------------------------------------------------------------
# The incremental batch sampler (Figure 3's draw-more-trials contract)
# --------------------------------------------------------------------------


class BatchKarpLubySampler:
    """Incremental Karp–Luby estimation with block-drawn trials.

    Degenerate disjunctions are exact without sampling: empty F → 0,
    trivially-true F → 1, |F| = 1 → p_f (the estimator would always
    return 1, so p̂ = M = p_f).  Otherwise :meth:`run` draws the
    requested trials as blocks and ``estimate`` / ``error_bound`` /
    ``snapshot`` read the statistics so far.  The Figure 3 algorithm
    refines by repeatedly calling ``run(|F|)``.

    :meth:`run` cuts each requested budget into blocks by
    :func:`~repro.util.parallel.plan_trials`, seeds block ``i`` from
    ``(one parent draw, i)``, and sums the block positives — the
    trial-count-weighted merge of the block estimates.
    """

    def __init__(self, dnf: Dnf, rng: random.Random | int | None = None):
        """Set up block sampling for ``dnf``."""
        self.dnf = dnf
        self.rng = ensure_rng(rng)
        self.trials = 0
        self.positives = 0
        if dnf.is_trivially_true:
            self._exact_value: float | None = 1.0
        elif dnf.is_empty:
            self._exact_value = 0.0
        elif dnf.size == 1:
            self._exact_value = float(dnf.weights[0])
        else:
            self._exact_value = None

    @property
    def is_exact(self) -> bool:
        """True when the confidence is known exactly without sampling."""
        return self._exact_value is not None

    def run(self, n_trials: int) -> None:
        """Accumulate ``n_trials`` further Definition 4.1 trials."""
        if n_trials <= 0 or self.is_exact:
            return
        blocks = _map_trial_blocks(_karp_luby_trial_block, self.dnf.encoded, n_trials, self.rng)
        self.positives += sum(blocks)
        self.trials += n_trials

    @property
    def estimate(self) -> float:
        """p̂ = X·M/m (or the exact value for degenerate disjunctions)."""
        if self._exact_value is not None:
            return self._exact_value
        if self.trials == 0:
            raise RuntimeError("no trials drawn yet")
        return self.positives * self.dnf.encoded.total_weight / self.trials

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
            total_weight=self.dnf.encoded.total_weight,
            size=self.dnf.size,
            eps=eps,
            delta=delta,
            exact=self._exact_value is not None,
        )


def karp_luby_ratio(dnf: Dnf, lower: Prob | None = None) -> float:
    """A proven bound r ≥ M/p on ``dnf``, the third argument of the budget.

    Without ``lower`` this is the paper's |F|.  With a guaranteed lower
    bound L ≤ p it is M / max(L, max_f p_f): p ≥ max_f p_f always holds,
    and M ≤ |F|·max_f p_f, so the ratio never exceeds |F| and the trial
    budget it sizes is never larger than Proposition 4.2's.
    """
    if lower is None or dnf.is_empty:
        return dnf.size
    floor = max(lower, max(dnf.weights))
    if floor <= 0:
        return dnf.size
    return min(float(dnf.total_weight / floor), dnf.size)


def batch_approximate_confidence(
    dnf: Dnf,
    eps: float,
    delta: float,
    rng: random.Random | int | None = None,
    lower: Prob | None = None,
) -> KarpLubyEstimate:
    """The (ε, δ) FPRAS of Proposition 4.2, its trial budget drawn in blocks.

    Runs m = ⌈3·|F|·ln(2/δ)/ε²⌉ Definition 4.1 trials and returns p̂
    with Pr[|p̂ − p| ≥ ε·p] ≤ δ: the mean of the trials is an unbiased
    estimator of p/M and p/M ≥ 1/|F|, so the Chernoff bound gives
    δ(ε) ≤ 2·e^{−m·ε²/(3|F|)}.  The budget runs as per-block draws whose
    statistics merge by trial-count weighting (see
    :class:`BatchKarpLubySampler`).  A guaranteed lower
    bound ``lower`` ≤ p shrinks |F| in m to :func:`karp_luby_ratio`, at
    the same (ε, δ).
    """
    sampler = BatchKarpLubySampler(dnf, rng)
    if sampler.is_exact:
        return sampler.snapshot(eps, delta)
    sampler.run(bounds.karp_luby_sample_size(eps, delta, karp_luby_ratio(dnf, lower)))
    return sampler.snapshot(eps, delta)


def batch_naive_confidence(
    dnf: Dnf, samples: int, rng: random.Random | int | None = None
) -> NaiveEstimate:
    """Naive world-sampling estimate of p: ``samples`` worlds over vars(F)."""
    return shared_block_confidences([dnf], samples, rng)[0]


def shared_block_confidences(
    dnfs: Sequence[Dnf], samples: int, rng: random.Random | int | None = None
) -> list[NaiveEstimate]:
    """Estimate every disjunction against ONE shared block of worlds.

    Draws ``samples`` world assignments over the union of the
    disjunctions' variables once, then evaluates each DNF's clauses
    against the whole block — the batched-query pattern of
    ``ProbDB.confidence_all``: the sampling cost is paid once per query,
    not once per result tuple.  Estimates for degenerate disjunctions
    are exact and draw nothing.  All disjunctions must share one W table.

    The sample budget is cut into blocks by
    :func:`~repro.util.parallel.plan_trials` (each still shared by every
    DNF *within* the block, so the per-block correlation structure is
    preserved); per-DNF positives sum across blocks — the
    trial-count-weighted merge.
    """
    generator = ensure_rng(rng)
    results: list[NaiveEstimate | None] = [None] * len(dnfs)
    sampled: list[int] = []
    for i, dnf in enumerate(dnfs):
        if dnf.is_trivially_true:
            results[i] = NaiveEstimate(1.0, 0, 0)
        elif dnf.is_empty:
            results[i] = NaiveEstimate(0.0, 0, 0)
        else:
            sampled.append(i)
    if not sampled or samples <= 0:
        return [r if r is not None else NaiveEstimate(0.0, 0, 0) for r in results]

    w = dnfs[sampled[0]].w
    union_vars: set[Var] = set()
    for i in sampled:
        if dnfs[i].w is not w:
            raise ValueError("shared_block_confidences needs one common W table")
        union_vars |= dnfs[i].variables
    variables = sorted(union_vars, key=repr)
    encoders = [_EncodedDnf(dnfs[i], variables) for i in sampled]

    per_block = _map_trial_blocks(_shared_trial_block, encoders, samples, generator)
    for k, i in enumerate(sampled):
        positives = sum(block[k] for block in per_block)
        results[i] = NaiveEstimate(positives / samples, samples, positives)
    return results
