"""Top-k answers by confidence-interval racing.

"Which are the k most probable tuples?" does not need every tuple's
confidence at uniform precision — it needs just enough precision to
*separate* the k-th and (k+1)-th candidates.  This driver races the
candidates with guaranteed intervals, spending trials only where the
ranking is still ambiguous:

1. **Bound seeding** (zero trials, error 0).  Every candidate starts
   from its dissociation-bound enclosure
   (:func:`repro.confidence.dissociation.dissociation_interval`): a
   guaranteed ``lower ≤ P(F) ≤ upper`` box in exact rationals.
   Candidates whose box already clears or misses the k-th boundary are
   admitted or eliminated outright.

2. **Coarse sampling.**  Survivors get a
   :class:`~repro.confidence.batch.BatchKarpLubySampler` and a first
   small block of Definition 4.1 trials.

3. **Interval racing.**  Each round refines **only** the candidates
   whose Lemma 5.1 interval (:func:`repro.core.intervals.relative_interval`
   of the running estimate, intersected with the enclosure) still
   overlaps the running k-th threshold; per-round allocations double
   until a candidate separates or reaches the full Proposition 4.2
   budget ``m = ⌈3·|F|·ln(2/δ)/ε²⌉`` — the cost ``confidence_all`` at
   the same (ε, δ) pays for *every* tuple.

**The threshold rule.**  Write ``[lo_i, hi_i]`` for candidate i's
current interval.  Candidate i is *eliminated* when the k-th largest
lower bound among the other candidates exceeds ``hi_i`` (at least k
others surely beat it) and *admitted* when the k-th largest upper bound
among the others is at most ``lo_i`` (at most k−1 others possibly beat
it).  Decisions freeze a candidate's interval and drop it from the
refinement set; the race ends when every candidate is decided or every
undecided candidate has reached its full (ε, δ) budget — exact ties at
the boundary therefore terminate instead of racing forever.

**Determinism contract.**  The shard plan is a function of the refine
set's size and the round budget only (``plan_items`` over the
candidate count); each candidate draws from its own positional stream
``shard_seed(shard_seed(base, index), round)`` where ``base`` is one
parent draw and ``index`` the candidate's rank in the deterministic
candidate order, and per-block positives merge by trial-count weighting
exactly as the batch sampler's executor path does.  Results are
bit-identical for every worker count, and the final ranking breaks ties by candidate order —
so ``topk`` is reproducible tuple-for-tuple.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from repro.confidence import bounds
from repro.confidence.batch import BatchKarpLubySampler, _karp_luby_trial_block
from repro.confidence.dissociation import DEFAULT_BOUND_BUDGET, dissociation_intervals
from repro.confidence.dnf import Dnf
from repro.core.intervals import relative_interval
from repro.util.parallel import SERIAL_EXECUTOR, ShardExecutor, shard_seed
from repro.util.rng import ensure_rng

__all__ = ["TopKEntry", "TopKReport", "race_topk", "rank_exact", "TOPK_COARSE_ROUNDS"]

TOPK_COARSE_ROUNDS = 32
"""Outer-loop rounds of the first sampling pass: every survivor's coarse
block is ``TOPK_COARSE_ROUNDS · |F|`` trials (the Figure 3 per-round
unit), doubling each subsequent round until separation."""

# Candidate status over the race.
_ACTIVE = 0
_ADMITTED = 1
_ELIMINATED = 2
_RESOLVED = 3  # undecided but at full (eps, delta) budget — ranked by estimate


@dataclass(frozen=True)
class TopKEntry:
    """One ranked answer: the data tuple, its estimate, and its audit trail.

    ``value`` is an exact :class:`~fractions.Fraction` when the
    candidate was decided without sampling (``exact`` True, ``trials``
    0) and a float estimate otherwise; ``lower``/``upper`` is the
    candidate's final guaranteed-or-Lemma-5.1 interval; ``source`` is
    ``"bounds"`` (decided by the dissociation enclosure alone) or
    ``"sampled"``.
    """

    row: tuple
    value: Fraction | float
    lower: Fraction | float
    upper: Fraction | float
    exact: bool
    trials: int
    source: str


@dataclass(frozen=True)
class TopKReport:
    """Outcome of an interval race: the ranked top-k plus audit counters.

    ``entries``        the k answers, most probable first (ties broken by
                       candidate order — deterministic);
    ``candidates``     how many tuples entered the race;
    ``bounds_decided`` candidates admitted/eliminated by their
                       dissociation enclosure alone (zero trials, error 0);
    ``sampled``        candidates that drew at least one trial;
    ``rounds``         refinement rounds run (the coarse pass is round 1);
    ``total_trials``   Karp–Luby trials drawn across all candidates —
                       compare ``full_trials``, what ``confidence_all``
                       at the same (ε, δ) would draw for the same
                       non-degenerate candidates.
    """

    entries: tuple[TopKEntry, ...]
    k: int
    eps: float
    delta: float
    candidates: int
    bounds_decided: int
    sampled: int
    rounds: int
    total_trials: int
    full_trials: int

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The ranked data tuples, most probable first."""
        return tuple(entry.row for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def rank_exact(
    rows: Sequence[tuple], values: Sequence, k: int, eps: float, delta: float
) -> TopKReport:
    """The top k of ``rows`` by their *exact* confidences ``values`` — no race.

    What ``topk`` answers when every value is already known exactly (an
    exact-solver session, or a plan answered extensionally): entries
    with ``source="exact"``, zero trials, point intervals; ties broken
    by candidate order, like the race.  (ε, δ) only label the report,
    but are checked as the race checks them: whether a call is accepted
    must not depend on which route its data took.
    """
    _check_accuracy(eps, delta)
    order = sorted(range(len(rows)), key=lambda i: (-values[i], i))
    entries = tuple(
        TopKEntry(
            row=tuple(rows[i]),
            value=values[i],
            lower=values[i],
            upper=values[i],
            exact=True,
            trials=0,
            source="exact",
        )
        for i in order[:k]
    )
    return TopKReport(entries, k, eps, delta, len(rows), 0, 0, 0, 0, 0)


def _check_accuracy(eps: float, delta: float) -> None:
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")


def _achieved_eps(trials: int, size: int, delta: float) -> float:
    """The ε that ``trials`` Karp–Luby trials justify at failure δ.

    Inverts δ = 2·e^{−m·ε²/(3·|F|)} (Section 4); ``inf`` when no trials
    were drawn.
    """
    if trials <= 0 or size <= 0:
        return math.inf
    return math.sqrt(3.0 * size * math.log(2.0 / delta) / trials)


def _kth_excluding(sorted_desc: list, own, k: int):
    """The k-th largest value among the *other* candidates.

    ``sorted_desc`` holds every candidate's value (descending), ``own``
    the candidate's; removing one occurrence ≥ the k-th shifts the k-th
    of the remainder down one slot.
    """
    if own >= sorted_desc[k - 1]:
        return sorted_desc[k]
    return sorted_desc[k - 1]


def _race_shard_task(items: list[tuple]) -> list[int]:
    """One shard of a refinement round: per-candidate seeded trial blocks.

    ``items`` holds ``(encoded dnf, n_trials, seed)`` triples; each
    candidate's block is drawn from its own positional seed, so the
    concatenated results are independent of how the round was sharded.
    (Module level so the process pool can pickle it.)
    """
    return [_karp_luby_trial_block(enc, count, seed) for enc, count, seed in items]


def race_topk(
    rows: Sequence[tuple],
    dnfs: Sequence[Dnf],
    k: int,
    eps: float,
    delta: float,
    rng: random.Random | int | None = None,
    executor: "ShardExecutor | None" = None,
    bounds_budget: int = DEFAULT_BOUND_BUDGET,
    enclosures=None,
) -> TopKReport:
    """Race ``rows`` (with per-row disjunctions ``dnfs``) for the top k.

    Every returned estimate carries the same *marginal* (ε, δ)
    guarantee ``confidence_all`` gives each tuple — the race merely
    refuses to spend the full budget on candidates the intervals
    already separate.  ``rows`` fixes the deterministic candidate order
    used for positional seeds and tie-breaking.  ``enclosures`` is the
    enclosure seam stage 1 asks (``(dnfs, budget) -> intervals``; a
    session passes its evaluator's, so boxes it already holds are not
    solved again); by default they are solved here, on ``executor``.
    """
    if k <= 0:
        raise ValueError(f"k must be a positive integer, got {k}")
    _check_accuracy(eps, delta)
    if len(rows) != len(dnfs):
        raise ValueError(f"{len(rows)} rows but {len(dnfs)} disjunctions")
    n = len(rows)
    executor = executor or SERIAL_EXECUTOR
    generator = ensure_rng(rng)
    full_trials = sum(
        bounds.karp_luby_sample_size(eps, delta, dnf.size)
        for dnf in dnfs
        if not (dnf.is_empty or dnf.is_trivially_true or dnf.size <= 1)
    )
    if n == 0:
        return TopKReport((), k, eps, delta, 0, 0, 0, 0, 0, 0)

    # ---- stage 1: dissociation enclosures seed every candidate's box.
    if enclosures is None:
        boxes = dissociation_intervals(dnfs, bounds_budget, executor=executor)
    else:
        boxes = enclosures(dnfs, bounds_budget)
    lo: list[float] = [float(iv.lower) for iv in boxes]
    hi: list[float] = [float(iv.upper) for iv in boxes]
    # Point summaries: exact Fractions where the enclosure pins the
    # value, midpoints otherwise (replaced by estimates once sampled).
    value: list[Fraction | float] = [
        iv.lower if iv.is_exact else iv.midpoint for iv in boxes
    ]
    status = [_ACTIVE] * n
    trials = [0] * n
    source = ["bounds"] * n

    if n <= k:
        entries = _ranked_entries(rows, boxes, value, lo, hi, trials, source, n)
        return TopKReport(entries, k, eps, delta, n, n, 0, 0, 0, full_trials)

    _apply_decisions(status, lo, hi, k)
    bounds_decided = sum(1 for s in status if s != _ACTIVE)
    # Exact-enclosure candidates left undecided (their point sits inside
    # the boundary gap only when tied); they cannot be sampled — a point
    # interval cannot shrink — so resolve them outright.
    for i in range(n):
        if status[i] == _ACTIVE and boxes[i].is_exact:
            status[i] = _RESOLVED
            bounds_decided += 1

    # ---- stage 2 + 3: coarse-sample survivors, then race the overlap set.
    survivors = [i for i in range(n) if status[i] == _ACTIVE]
    samplers: dict[int, BatchKarpLubySampler] = {}
    base = generator.getrandbits(64) if survivors else 0
    for i in survivors:
        sampler = BatchKarpLubySampler(dnfs[i], rng=shard_seed(base, i))
        if sampler.is_exact:  # degenerate DNFs have exact enclosures; belt+braces
            status[i] = _RESOLVED
            value[i] = sampler.estimate
            lo[i] = hi[i] = float(sampler.estimate)
        else:
            samplers[i] = sampler
            source[i] = "sampled"
    budget_full = {
        i: bounds.karp_luby_sample_size(eps, delta, dnfs[i].size) for i in samplers
    }

    rounds = 0
    per_round = TOPK_COARSE_ROUNDS
    while True:
        refine = [
            i for i in range(n) if status[i] == _ACTIVE and trials[i] < budget_full[i]
        ]
        if not refine:
            break
        rounds += 1
        allocations = [
            (i, min(budget_full[i] - trials[i], per_round * dnfs[i].size))
            for i in refine
        ]
        items = [
            (samplers[i]._enc, count, shard_seed(shard_seed(base, i), rounds))
            for i, count in allocations
        ]
        positives = executor.map_items(_race_shard_task, items)
        for (i, count), won in zip(allocations, positives):
            sampler = samplers[i]
            # Trial-count-weighted merge, exactly the sampler's own
            # sharded-run contract: positives and trials simply sum.
            sampler.positives += won
            sampler.trials += count
            trials[i] += count
            est = sampler.estimate
            eps_now = _achieved_eps(sampler.trials, dnfs[i].size, delta)
            if eps_now < 1.0:
                rel_lo, rel_hi = relative_interval(est, eps_now)
            else:
                rel_lo, rel_hi = 0.0, float(boxes[i].upper)
            # Intersect with the guaranteed enclosure; an empty
            # intersection (the δ-event fired) collapses to the
            # enclosure point nearest the estimate.
            new_lo = max(rel_lo, float(boxes[i].lower))
            new_hi = min(rel_hi, float(boxes[i].upper))
            if new_lo > new_hi:
                pinned = min(max(est, float(boxes[i].lower)), float(boxes[i].upper))
                new_lo = new_hi = pinned
            lo[i], hi[i] = new_lo, new_hi
            value[i] = est
        _apply_decisions(status, lo, hi, k)
        per_round *= 2
    for i in range(n):
        if status[i] == _ACTIVE:
            status[i] = _RESOLVED

    entries = _ranked_entries(rows, boxes, value, lo, hi, trials, source, k)
    return TopKReport(
        entries,
        k,
        eps,
        delta,
        n,
        bounds_decided,
        len(samplers),
        rounds,
        sum(trials),
        full_trials,
    )


def _apply_decisions(status: list[int], lo: list[float], hi: list[float], k: int) -> None:
    """Admit/eliminate active candidates per the threshold rule (in place)."""
    n = len(status)
    los = sorted(lo, reverse=True)
    his = sorted(hi, reverse=True)
    for i in range(n):
        if status[i] != _ACTIVE:
            continue
        if _kth_excluding(los, lo[i], k) > hi[i]:
            status[i] = _ELIMINATED
        elif _kth_excluding(his, hi[i], k) <= lo[i]:
            status[i] = _ADMITTED


def _ranked_entries(
    rows, enclosures, value, lo, hi, trials, source, k: int
) -> tuple[TopKEntry, ...]:
    """The top-k entries by (estimate desc, candidate order asc)."""
    order = sorted(range(len(rows)), key=lambda i: (-value[i], i))
    entries = []
    for i in order[:k]:
        exact = trials[i] == 0 and enclosures[i].is_exact
        entries.append(
            TopKEntry(
                row=tuple(rows[i]),
                value=value[i],
                lower=enclosures[i].lower if trials[i] == 0 else lo[i],
                upper=enclosures[i].upper if trials[i] == 0 else hi[i],
                exact=exact,
                trials=trials[i],
                source=source[i],
            )
        )
    return tuple(entries)
