"""Oblivious (dissociation-style) upper *and* lower bounds on DNF confidence.

Exact confidence is #P-complete (Theorem 3.4), but a *guaranteed
interval* around it is cheap: Gatterbauer & Suciu's approximate lifted
inference computes upper and lower bounds for #P-hard DNFs as pure
relational plans.  This module is that idea adapted to the engine's
disjunctions of partial functions over multi-valued variables:
:func:`dissociation_interval` returns a :class:`BoundInterval` with

    interval.lower  ≤  P(F)  ≤  interval.upper

always — the bounds are *oblivious* (never wrong, sometimes loose).
Read-once disjunctions (and anything else the budgeted solver can
finish) come back as exact point intervals; hard instances come back
with the interval the budget could afford.

The solver mirrors the exact decomposition solver's structure with a
node budget bolted on, and walks the same integer-coded clauses
(:class:`~repro.confidence.exact.ClauseKernel`, built once per solve):

1. **Independent-component factoring** (free — no budget spent):
   clauses over disjoint variable sets are independent, and
   ``1 − ∏(1 − x_c)`` is monotone in each component probability, so the
   component intervals combine by interval arithmetic without loss.
   Read-once DNFs decompose into single-clause components and are
   therefore always exact here, in linear time.
2. **Budgeted Shannon expansion** (one budget unit per expansion): the
   branch combination ``Σ_v P(X=v)·P_v`` is monotone too, so branch
   intervals sum exactly.  While budget remains, the bound solver *is*
   the exact solver.
3. **Base-case component bounds** at budget exhaustion, from the clause
   weights ``p_i`` and the pairwise intersection weights
   ``q_ij = weight(c_i ∪ c_j)`` (0 for inconsistent pairs — their world
   sets are disjoint; q_ij continues p_i's product over the items c_j
   adds, in the order ``weight(c_i ∪ c_j)`` takes, so no union is built):

   * lower: ``max(max_i p_i, Σp_i − Σ_{i<j} q_ij)`` — the degree-2
     Bonferroni (Kounias) inequality, always valid;
   * upper: ``Σp_i`` (union bound) improved to Hunter's bound
     ``Σp_i − Σ_{(i,j)∈T} q_ij`` over a maximum-weight spanning tree
     ``T``, always valid; and, **only** when every clause pair is
     consistent (each shared variable is demanded one single value, so
     the clauses are monotone conjunctions over independent Boolean
     indicators), the FKG/dissociation product bound
     ``1 − ∏(1 − p_i)``.

   The product bound is *invalid* in general: with X uniform on {1, 2}
   the clauses ``X=1`` and ``X=2`` have ``1 − ∏(1−p_i) = 3/4`` but
   probability 1.  Conversely, mutually-exclusive clause sets (all
   ``q_ij = 0`` — repair-key alternatives) make Bonferroni and Hunter
   coincide at ``Σp_i``: an exact answer without a single expansion.

Every sum and product is taken in one fixed order (and is exact for
:class:`~fractions.Fraction` weights): components and base-case members
by clause text, branches in domain order, each clause weight in the
item order of the condition it came from.  So an interval is a pure
function of the clause set — identical across worker counts and hash
seeds, which is what lets the ``auto`` policy route on it without
breaking the engine's differential determinism contracts.  The pairwise
consistency screen compares literal ids, vectorized with numpy from
:data:`_NUMPY_SCREEN_MIN` clauses up; the comparison is integer-exact,
so both screens produce identical intervals.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.confidence.dnf import Dnf
from repro.confidence.exact import ClauseKernel, _Clause
from repro.util.parallel import SERIAL_EXECUTOR
from repro.worlds.database import Prob

__all__ = [
    "BoundInterval",
    "EnclosureMemo",
    "dissociation_interval",
    "dissociation_intervals",
    "DEFAULT_BOUND_BUDGET",
    "PAIR_CAP",
]

DEFAULT_BOUND_BUDGET = 64
"""Default Shannon-expansion budget: small enough that hard DNFs (dense
bipartite 2DNFs and friends) fail fast into the pairwise bounds and stay
routed to sampling, large enough to finish every practically-structured
instance the exact router would accept."""

PAIR_CAP = 48
"""Components larger than this skip the O(k²) pairwise bounds and fall
back to ``max p_i`` / union-bound — keeping the worst-case base cost
linear in the clause count."""

_NUMPY_SCREEN_MIN = 8
"""Components with at least this many clauses screen their pairs with one
numpy array program; smaller ones loop over the pairs in Python."""


@dataclass(frozen=True)
class BoundInterval:
    """A guaranteed enclosure ``lower ≤ P(F) ≤ upper`` of a confidence.

    Bounds are exact rationals; ``is_exact`` intervals pin the
    probability to a point (the solver finished, or the structure —
    read-once, mutually exclusive — made the bounds meet).
    """

    lower: Prob
    upper: Prob

    @property
    def is_exact(self) -> bool:
        """True when the interval is a single point — P(F) is known."""
        return self.lower == self.upper

    @property
    def midpoint(self) -> Prob:
        """The interval's center — the natural point summary of the bound."""
        return (self.lower + self.upper) / 2

    @property
    def width(self) -> Prob:
        """Interval width ``upper - lower`` (0 means the bound is exact)."""
        return self.upper - self.lower

    def __contains__(self, p) -> bool:
        """Whether probability ``p`` lies inside the interval."""
        return self.lower <= p <= self.upper


def dissociation_interval(dnf: Dnf, budget: int = DEFAULT_BOUND_BUDGET) -> BoundInterval:
    """Guaranteed confidence bounds for ``dnf``, memoized on the object.

    ``budget`` caps the Shannon expansions spent before the solver falls
    back to the pairwise Bonferroni/Hunter/FKG bounds; component
    factoring and single-clause components are free, so read-once
    disjunctions are exact at any budget (including 0).
    """
    memo = _object_memo(dnf)
    interval = memo.get(budget)
    if interval is None:
        interval = memo[budget] = _compute_interval(dnf, budget)
    return interval


def _object_memo(dnf: Dnf) -> dict[int, BoundInterval]:
    """The budget → interval memo riding on ``dnf`` itself (created lazily)."""
    if dnf._bounds is None:
        dnf._bounds = {}
    return dnf._bounds


def _compute_interval(dnf: Dnf, budget: int) -> BoundInterval:
    if dnf.is_empty:
        return BoundInterval(Fraction(0), Fraction(0))
    if dnf.is_trivially_true:
        return BoundInterval(Fraction(1), Fraction(1))
    kernel = ClauseKernel(dnf)
    lower, upper = _BoundSolver(kernel, budget).solve(kernel.clauses)
    return BoundInterval(lower, upper)


def dissociation_intervals(
    dnfs: Sequence[Dnf],
    budget: int = DEFAULT_BOUND_BUDGET,
    executor=None,
) -> list[BoundInterval]:
    """Compute bounds for a batch of disjunctions, sharded when profitable.

    Only the misses are solved — among the objects not yet holding an
    interval at ``budget``, one representative per distinct clause set
    (over one W table) — and every result is written back to the
    objects' memo, so a pooled batch pickles nothing the parent already
    knows and a later :func:`dissociation_interval` on any of them is
    free.

    Bounds draw no randomness, so the shards need no seeds: the miss
    list is cut by the worker-count-independent
    :meth:`~repro.util.parallel.ShardExecutor.plan_items` schedule and
    results concatenate in shard order — bit-identical at every worker
    count, exactly like the exact strategies' sharded batches.
    """
    dnfs = list(dnfs)
    misses: dict[tuple, list[Dnf]] = {}
    for dnf in dnfs:
        if budget not in _object_memo(dnf):
            misses.setdefault((id(dnf.w), frozenset(dnf.members)), []).append(dnf)
    if misses:
        solved = (executor or SERIAL_EXECUTOR).map_items(
            _interval_shard_task, [same[0] for same in misses.values()], budget
        )
        for same, interval in zip(misses.values(), solved):
            for dnf in same:
                dnf._bounds[budget] = interval
    return [dnf._bounds[budget] for dnf in dnfs]


def _interval_shard_task(dnfs: list[Dnf], budget: int) -> list[BoundInterval]:
    """One shard of a sharded bounds batch (module level: pickles)."""
    return [dissociation_interval(dnf, budget) for dnf in dnfs]


class EnclosureMemo:
    """Enclosures by content: each distinct (clause set, budget) is solved once.

    An enclosure is a pure function of the clause set, the W entries of
    its variables and the budget, while the ``Dnf`` *objects* asking for
    it come and go — Theorem 6.7's driver rebuilds every candidate's
    disjunction, over a fresh copy of W, at each doubling of l.  A memo
    outlives them: it is the run scope the driver carries across its
    evaluations, and the scope a session puts in front of its cache (the
    two hooks).  The key names no W, so one memo serves one database
    (its W table and copies of it).  Calling it is the enclosure seam,
    ``memo(dnfs, budget) -> list[BoundInterval]``; ``computed`` counts
    the disjunctions it had to hand to the solver.

    Two more tables hold what else a round budget cannot change, for
    the approximate σ̂ evaluators of the run: :meth:`intern` keeps the
    first disjunction seen with each ordered member tuple (and with it
    the weights and trial encoding built on it), and ``settled`` holds
    the σ̂ decisions that drew no trial, under keys the evaluator picks.
    Neither table reaches a longer-lived store.
    """

    def __init__(self, executor=None):
        """Solve misses on ``executor`` (default: the process-wide serial one)."""
        self.executor = executor
        self.computed = 0
        self._intervals: dict[tuple, BoundInterval] = {}
        self._dnfs: dict[tuple, Dnf] = {}
        self.settled: dict[tuple, object] = {}

    def intern(self, dnf: Dnf) -> Dnf:
        """The first disjunction of the run with ``dnf``'s members, in order.

        The order is part of the key: it is Definition 4.1's tie-break,
        so a reordered disjunction samples differently.
        """
        return self._dnfs.setdefault(dnf.members, dnf)

    def _shared_get(self, key: tuple) -> BoundInterval | None:
        """A longer-lived store's answer for ``key`` (here: there is none)."""
        return None

    def _shared_put(self, key: tuple, dnf: Dnf, interval: BoundInterval) -> None:
        """Offer a freshly solved interval to the longer-lived store."""

    def __call__(self, dnfs: Sequence[Dnf], budget: int) -> list[BoundInterval]:
        """One interval per disjunction, in order; only the misses are solved."""
        known = self._intervals
        keys = [("bounds", frozenset(dnf.members), budget) for dnf in dnfs]
        misses: dict[tuple, Dnf] = {}
        for key, dnf in zip(keys, dnfs):
            if key in known or key in misses:
                continue
            interval = self._shared_get(key)
            if interval is None:
                misses[key] = dnf
            else:
                known[key] = interval
        if misses:
            solved = dissociation_intervals(list(misses.values()), budget, executor=self.executor)
            self.computed += len(misses)
            for (key, dnf), interval in zip(misses.items(), solved):
                known[key] = interval
                self._shared_put(key, dnf, interval)
        return [known[key] for key in keys]


class _BoundSolver:
    """Budget-limited interval analogue of the exact decomposition solver.

    It walks the same :class:`~repro.confidence.exact.ClauseKernel` in the
    same deterministic order (components and base-case members by clause
    text, branches in domain order) because the budget drains as the
    solver walks: a hash-seed-dependent order could exhaust it on
    different subproblems and return different — still valid, but
    different — intervals.
    """

    __slots__ = ("kernel", "budget", "_memo")

    def __init__(self, kernel: ClauseKernel, budget: int):
        """Bind the coded DNF and the node budget the traversal may spend."""
        self.kernel = kernel
        self.budget = budget
        self._memo: dict[frozenset[_Clause], tuple[Prob, Prob]] = {}

    def solve(self, clauses: frozenset[_Clause]) -> tuple[Prob, Prob]:
        """Return (lower, upper) confidence bounds for ``clauses``."""
        if not clauses:
            return Fraction(0), Fraction(0)
        cached = self._memo.get(clauses)
        if cached is not None:
            return cached

        kernel = self.kernel
        components = kernel.components(clauses)
        if len(components) > 1:
            # Disjoint variable sets: 1 − ∏(1 − x) is monotone in every
            # component probability, so the interval product is tight.
            miss_lower: Prob = Fraction(1)  # ∏(1 − upper_c)
            miss_upper: Prob = Fraction(1)  # ∏(1 − lower_c)
            for component in components:
                lower_c, upper_c = self.solve(component)
                miss_lower = miss_lower * (1 - upper_c)
                miss_upper = miss_upper * (1 - lower_c)
            result = (1 - miss_upper, 1 - miss_lower)
        elif len(clauses) == 1:
            (clause,) = clauses
            p = kernel.weight(clause)
            result = (p, p)
        elif self.budget > 0:
            self.budget -= 1
            v = kernel.branching_variable(clauses)
            lower: Prob = Fraction(0)
            upper: Prob = Fraction(0)
            for p, lit in kernel.branches[v]:
                reduced = kernel.condition(clauses, v, lit)
                branch = (Fraction(1), Fraction(1)) if reduced is None else self.solve(reduced)
                lower = lower + p * branch[0]
                upper = upper + p * branch[1]
            result = (lower, upper)
        else:
            result = self._component_bounds(clauses)

        self._memo[clauses] = result
        return result

    # -------------------------------------------------- base-case bounds
    def _component_bounds(self, clauses: frozenset[_Clause]) -> tuple[Prob, Prob]:
        """Pairwise bounds for one connected component, budget exhausted."""
        kernel = self.kernel
        members = sorted(clauses, key=kernel.texts.__getitem__)
        weights = [kernel.weight(c) for c in members]
        k = len(members)
        total: Prob = Fraction(0)
        for p in weights:
            total = total + p
        best = max(weights)
        if k > PAIR_CAP:
            return best, min(Fraction(1), total)

        consistent = self._pair_screen(members)
        pair_weight: list[list[Prob]] = [[Fraction(0)] * k for _ in range(k)]
        s2: Prob = Fraction(0)
        for i, j in consistent:
            # q_ij continues p_i's fold over the items c_j adds, in c_j's order
            q = kernel.weight(members[j], weights[i], members[i])
            pair_weight[i][j] = pair_weight[j][i] = q
            s2 = s2 + q

        lower = max(best, total - s2, Fraction(0))
        # Hunter's bound: Σp_i − Σ_{(i,j)∈T} q_ij for any tree T on the
        # clauses; maximizing the tree weight minimizes the bound.
        upper = min(Fraction(1), total - _max_spanning_tree_weight(k, pair_weight))
        if len(consistent) == k * (k - 1) // 2:
            # Every pair consistent ⇒ each variable is demanded one
            # single value across the component ⇒ the clauses are
            # monotone conjunctions of independent Boolean indicators,
            # and FKG gives the dissociation product bound.
            miss: Prob = Fraction(1)
            for p in weights:
                miss = miss * (1 - p)
            upper = min(upper, 1 - miss)
        return lower, upper

    def _pair_screen(self, members: list[_Clause]) -> list[tuple[int, int]]:
        """Indices (i < j) of clause pairs whose partial functions agree.

        Two clauses conflict where they hold different literals of one
        variable.  The numpy screen lays the literal ids out by variable
        (−1 for "not in this clause") and tests all pairs with one
        boolean-array program; id comparisons are exact, so both paths
        return the same pairs in the same order.
        """
        k, lit_var = len(members), self.kernel.lit_var
        if k >= _NUMPY_SCREEN_MIN:
            column: dict[int, int] = {}
            rows, columns, lits = [], [], []
            for row, clause in enumerate(members):
                for lit in clause:
                    rows.append(row)
                    columns.append(column.setdefault(lit_var[lit], len(column)))
                    lits.append(lit)
            matrix = np.full((k, len(column)), -1, dtype=np.int64)
            matrix[rows, columns] = lits
            a = matrix[:, None, :]
            b = matrix[None, :, :]
            conflict = ((a >= 0) & (b >= 0) & (a != b)).any(axis=2)
            i_idx, j_idx = np.nonzero(np.triu(~conflict, 1))
            return list(zip(i_idx.tolist(), j_idx.tolist()))

        masks = self.kernel.masks

        def agree(c_i: _Clause, c_j: _Clause) -> bool:
            shared = masks[c_i] & masks[c_j]
            return not shared or all(lit in c_i for lit in c_j if 1 << lit_var[lit] & shared)

        return [(i, j) for i in range(k) for j in range(i + 1, k) if agree(members[i], members[j])]


def _max_spanning_tree_weight(k: int, pair_weight: list[list[Prob]]) -> Prob:
    """Weight of a maximum spanning tree on k clauses (Prim, O(k²)).

    Inconsistent pairs weigh 0 in the q_ij matrix (they intersect nowhere),
    so the graph is always complete and the tree always spans; the maximum
    *weight* is unique even when the maximizing tree is not.
    """
    if k <= 1:
        return Fraction(0)
    in_tree = [False] * k
    in_tree[0] = True
    best = list(pair_weight[0])
    total: Prob = Fraction(0)
    for _ in range(k - 1):
        pick = -1
        for i in range(k):
            if not in_tree[i] and (pick < 0 or best[i] > best[pick]):
                pick = i
        in_tree[pick] = True
        total = total + best[pick]
        row = pair_weight[pick]
        for i in range(k):
            if not in_tree[i] and row[i] > best[i]:
                best[i] = row[i]
    return total
