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
node budget bolted on, and walks the same bitmask clause sets
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

   * lower: ``max(max_i p_i, Σp_i − Σ_{i<j} q_ij, L_ro)`` — the degree-2
     Bonferroni (Kounias) inequality and the *read-once floor*
     ``L_ro = 1 − ∏(1 − p_i)`` over the clauses kept, by descending
     weight, while they share no variable with one kept before: those are
     independent events, so ``L_ro`` is exactly the probability of a
     sub-formula.  Both are always valid (``L_ro`` also past ``PAIR_CAP``);
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
by clause text (the read-once floor by descending weight, ties by
text), branches in domain order, each clause weight in the item order
of the condition it came from.  So an interval is a pure
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
from repro.confidence.exact import ClauseKernel, clause_ids
from repro.util.scope import current_scope
from repro.worlds.database import Prob

__all__ = [
    "BoundInterval",
    "EnclosureMemo",
    "dissociation_interval",
    "dissociation_intervals",
    "routing_intervals",
    "DEFAULT_BOUND_BUDGET",
    "OPEN_BOUND_BUDGET",
    "PAIR_CAP",
]

DEFAULT_BOUND_BUDGET = 64
"""Default Shannon-expansion budget: small enough that hard DNFs (dense
bipartite 2DNFs and friends) fail fast into the pairwise bounds, large
enough to finish every practically-structured instance the exact router
would accept.  For ``auto``'s step 4 (:func:`routing_intervals`) it is
the most expansions a *point* may take; an enclosure that stays open
costs :data:`OPEN_BOUND_BUDGET` expansions instead."""

OPEN_BOUND_BUDGET = 1
"""Expansions ``auto`` spends on a step-4 enclosure that is not a point, which
only sizes and clips a Karp–Luby run (r = M / max(L, max p_f)).  On
``sampled_conf``'s DNFs one expansion draws 0.2 % more trials than 64, at
a seventh of the solve time; none draws 4.5 % more."""

PAIR_CAP = 48
"""Components larger than this skip the O(k²) pairwise bounds and fall
back to ``max p_i`` and the read-once floor / union-bound — keeping the
worst-case base cost near-linear in the clause count."""

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
    back to the pairwise Bonferroni/Hunter/FKG and read-once bounds; component
    factoring and single-clause components are free, so read-once
    disjunctions are exact at any budget (including 0).
    """
    memo = _object_memo(dnf)
    interval = memo.get(budget)
    if interval is None:
        interval = memo[budget] = _compute_interval(dnf, budget)
    return interval


def _object_memo(dnf: Dnf) -> dict[object, BoundInterval]:
    """The interval memo riding on ``dnf`` itself (created lazily).

    A budget keys that budget's interval, ``("route", budget)`` the step-4
    enclosure of :func:`routing_intervals`.
    """
    if dnf._bounds is None:
        dnf._bounds = {}
    return dnf._bounds


def _compute_interval(dnf: Dnf, budget: int) -> BoundInterval:
    if dnf.is_empty:
        return BoundInterval(Fraction(0), Fraction(0))
    if dnf.is_trivially_true:
        return BoundInterval(Fraction(1), Fraction(1))
    kernel = ClauseKernel(dnf)
    lower, upper = _BoundSolver(kernel, budget).solve(kernel.clauses, kernel.key)
    return BoundInterval(lower, upper)


def dissociation_intervals(
    dnfs: Sequence[Dnf], budget: int = DEFAULT_BOUND_BUDGET
) -> list[BoundInterval]:
    """Compute bounds for a batch of disjunctions, sharded when profitable.

    Only the misses are solved — among the objects not yet holding an
    interval at ``budget``, one representative per distinct clause set
    (over one W table) — and every result is written back to the
    objects' memo, so a pooled batch pickles nothing the parent already
    knows and a later :func:`dissociation_interval` on any of them is
    free.

    Bounds draw no randomness, so the shards need no seeds: the miss
    list is cut, on the run scope's executor, by the
    worker-count-independent
    :meth:`~repro.util.parallel.ShardExecutor.plan_items` schedule and
    results concatenate in shard order — bit-identical at every worker
    count, exactly like the exact strategies' sharded batches.
    """
    return _enclose(dnfs, budget, dissociation_interval, budget)


def routing_intervals(
    dnfs: Sequence[Dnf], budget: int = DEFAULT_BOUND_BUDGET
) -> list[BoundInterval]:
    """``auto``'s step-4 enclosures: a point within ``budget``, else an open one.

    Per distinct clause set, batched as :func:`dissociation_intervals`
    and on one :class:`ClauseKernel`, the *point attempt* runs the solver
    at ``budget`` but ends at the first base case whose bounds do not
    meet; if it finishes, it met only points and returns a point, bit for
    bit ``dissociation_interval(dnf, budget)``.  Otherwise the *open
    enclosure* is ``dissociation_interval(dnf, min(OPEN_BOUND_BUDGET,
    budget))``, bit for bit.  So a route is open iff the solve at
    ``budget`` met an open base case — the width of which only a
    zero-weight branch, a sure sibling component or float rounding could
    still erase.  The result is memoised under ``("route", budget)``,
    which no budget lookup reads: a pure function of the clause set, W
    and ``budget``, whatever else the memo holds.
    """
    return _enclose(dnfs, ("route", budget), _route_interval, budget)


def _enclose(dnfs: Sequence[Dnf], key, solve, budget: int) -> list[BoundInterval]:
    """Each DNF's interval under memo ``key``; ``solve(dnf, budget)`` fills the misses."""
    dnfs = list(dnfs)
    misses: dict[tuple, list[Dnf]] = {}
    for dnf in dnfs:
        if key not in _object_memo(dnf):
            misses.setdefault((id(dnf.w), frozenset(dnf.members)), []).append(dnf)
    if misses:
        solved = current_scope().executor.map_items(
            _interval_shard_task, [same[0] for same in misses.values()], solve, budget
        )
        for same, interval in zip(misses.values(), solved):
            for dnf in same:
                dnf._bounds[key] = interval
    return [dnf._bounds[key] for dnf in dnfs]


def _interval_shard_task(dnfs: list[Dnf], solve, budget: int) -> list[BoundInterval]:
    """One shard of an enclosure batch (module level: pickles)."""
    return [solve(dnf, budget) for dnf in dnfs]


def _route_interval(dnf: Dnf, budget: int) -> BoundInterval:
    """Step 4 on one DNF; a known open interval at ``budget`` fails the attempt unrun."""
    if dnf.is_empty or dnf.is_trivially_true:
        return dissociation_interval(dnf, budget)
    kernel, full = ClauseKernel(dnf), _object_memo(dnf).get(budget)
    if full is None or full.is_exact:
        try:
            point = _BoundSolver(kernel, budget, True).solve(kernel.clauses, kernel.key)
            return BoundInterval(*point)
        except _OpenBaseCase:
            pass
    solver = _BoundSolver(kernel, min(OPEN_BOUND_BUDGET, budget))
    return BoundInterval(*solver.solve(kernel.clauses, kernel.key))


class EnclosureMemo:
    """Enclosures by content: each distinct (clause set, budget) is solved once.

    An enclosure is a pure function of the clause set, the W entries of
    its variables and the budget, while the ``Dnf`` *objects* asking for
    it come and go — Theorem 6.7's driver rebuilds every candidate's
    disjunction, over a fresh copy of W, at each doubling of l.  A memo
    outlives them: it is the run memo of a run scope
    (:mod:`repro.util.scope`), which the driver keeps across its
    evaluations and a session puts in front of its cache (the two
    hooks).  The memo's own table keys on the W object too, so a
    library call may mix databases; the key it offers the longer-lived
    store names no W, so that store serves one database (its W table
    and copies of it).  Calling it is the enclosure seam,
    ``memo(dnfs, budget) -> list[BoundInterval]``; ``computed`` counts
    the disjunctions it had to hand to the solver.

    Two more tables hold what else a round budget cannot change, for
    the approximate σ̂ evaluators of the run: :meth:`intern` keeps the
    first disjunction seen with each member set (and with it the weights
    and trial encoding built on it), and ``settled`` holds
    the σ̂ decisions that drew no trial, under keys the evaluator picks.
    Neither table reaches a longer-lived store.
    """

    def __init__(self):
        """An empty memo; misses are solved on the run scope's executor."""
        self.computed = 0
        self._intervals: dict[tuple, BoundInterval] = {}
        self._dnfs: dict[tuple, Dnf] = {}
        self.settled: dict[tuple, object] = {}

    def intern(self, dnf: Dnf) -> Dnf:
        """The first disjunction of the run with ``dnf``'s member set.

        Keyed like every other memo: a sampler indexes F in an order of
        the data (:attr:`Dnf.encoded`), so a reordered disjunction samples
        identically.
        """
        return self._dnfs.setdefault(frozenset(dnf.members), dnf)

    def _shared_get(self, key: tuple) -> BoundInterval | None:
        """A longer-lived store's answer for ``key`` (here: there is none)."""
        return None

    def _shared_put(self, key: tuple, dnf: Dnf, interval: BoundInterval) -> None:
        """Offer a freshly solved interval to the longer-lived store."""

    def __call__(self, dnfs: Sequence[Dnf], budget: int) -> list[BoundInterval]:
        """One interval per disjunction, in order; only the misses are solved."""
        known = self._intervals
        keys = [(dnf.w, frozenset(dnf.members), budget) for dnf in dnfs]
        misses: dict[tuple, Dnf] = {}
        for key, dnf in zip(keys, dnfs):
            if key in known or key in misses:
                continue
            interval = self._shared_get(("bounds",) + key[1:])
            if interval is None:
                misses[key] = dnf
            else:
                known[key] = interval
        if misses:
            solved = dissociation_intervals(list(misses.values()), budget)
            self.computed += len(misses)
            for (key, dnf), interval in zip(misses.items(), solved):
                known[key] = interval
                self._shared_put(("bounds",) + key[1:], dnf, interval)
        return [known[key] for key in keys]


class _OpenBaseCase(Exception):
    """A point-only solve met a base case whose bounds do not meet."""


class _BoundSolver:
    """Budget-limited interval analogue of the exact decomposition solver.

    It walks the same :class:`~repro.confidence.exact.ClauseKernel` in the
    same deterministic order (components and base-case members by clause
    text, branches in domain order) because the budget drains as the
    solver walks: a hash-seed-dependent order could exhaust it on
    different subproblems and return different — still valid, but
    different — intervals.
    """

    __slots__ = ("kernel", "budget", "point_only", "_memo")

    def __init__(self, kernel: ClauseKernel, budget: int, point_only: bool = False):
        """Bind the coded DNF and the node budget the traversal may spend.

        A ``point_only`` solver raises :class:`_OpenBaseCase` at the first
        base case that is not a point, and so only ever returns points.
        """
        self.kernel = kernel
        self.budget = budget
        self.point_only = point_only
        self._memo: dict[int, tuple[Prob, Prob]] = {}

    def solve(self, ids: int, key: int, connected: bool = False) -> tuple[Prob, Prob]:
        """Return (lower, upper) confidence bounds for the set ``ids`` / ``key``.

        ``connected`` skips the component check of a set known to be one.
        """
        if not ids:
            return Fraction(0), Fraction(0)
        cached = self._memo.get(key)
        if cached is not None:
            return cached

        kernel = self.kernel
        parts = () if connected else kernel.components(ids, key)
        if len(parts) > 1:
            # Disjoint variable sets: 1 − ∏(1 − x) is monotone in every
            # component probability, so the interval product is tight.
            # Int 1 and 0 (below) start the folds: 1·x and 0 + x are x in value
            # and type, as with Fraction(1) and Fraction(0), minus their float fallback.
            miss_lower: Prob = 1  # ∏(1 − upper_c)
            miss_upper: Prob = 1  # ∏(1 − lower_c)
            for part in parts:
                lower_c, upper_c = self.solve(*part, True)
                miss_lower = miss_lower * (1 - upper_c)
                miss_upper = miss_upper * (1 - lower_c)
            result = (1 - miss_upper, 1 - miss_lower)
        elif not ids & (ids - 1):  # one clause
            p = kernel.weight(ids.bit_length() - 1)
            result = (p, p)
        elif self.budget > 0:
            self.budget -= 1
            v = kernel.branching_variable(ids)
            lower: Prob = 0
            upper: Prob = 0
            for p, lit in kernel.branches[v]:
                reduced = kernel.condition(ids, key, v, lit)
                branch = (Fraction(1), Fraction(1)) if reduced is None else self.solve(*reduced)
                lower = lower + p * branch[0]
                upper = upper + p * branch[1]
            result = (lower, upper)
        else:
            result = self._component_bounds(ids)
            if self.point_only and result[0] != result[1]:
                raise _OpenBaseCase

        self._memo[key] = result
        return result

    # -------------------------------------------------- base-case bounds
    def _component_bounds(self, ids: int) -> tuple[Prob, Prob]:
        """Pairwise and read-once bounds for one connected component, budget exhausted.

        Where a lower and an upper bound meet mathematically, float sums
        folded in different orders can leave the lower one a few ulps
        above the upper one.  Such a result collapses to the point at the
        upper bound, so no enclosure is ever inverted and upper bounds
        never move.
        """
        kernel = self.kernel
        members = sorted(clause_ids(ids), key=kernel.texts.__getitem__)
        weights = [kernel.weight(c) for c in members]
        k = len(members)
        total: Prob = Fraction(0)
        for p in weights:
            total = total + p
        best = max(weights)
        floor = self._read_once_floor(members, weights)
        if k > PAIR_CAP:
            upper = min(Fraction(1), total)
            return min(max(best, floor), upper), upper

        consistent = self._pair_screen(members)
        pair_weight: list[list[Prob]] = [[Fraction(0)] * k for _ in range(k)]
        s2: Prob = Fraction(0)
        lits = kernel.lits
        for i, j in consistent:
            # q_ij continues p_i's fold over the items c_j adds, in c_j's order
            q = kernel.weight(members[j], weights[i], lits[members[i]])
            pair_weight[i][j] = pair_weight[j][i] = q
            s2 = s2 + q

        lower = max(best, total - s2, Fraction(0), floor)
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
        return min(lower, upper), upper

    def _read_once_floor(self, members: list[int], weights: list[Prob]) -> Prob:
        """``1 − ∏(1 − p_i)`` over the heaviest-first variable-disjoint members.

        Ties are visited in text order; a member is kept while its
        variables miss every kept one's.
        """
        masks = self.kernel.masks
        taken = 0
        miss: Prob = Fraction(1)
        for i in sorted(range(len(members)), key=weights.__getitem__, reverse=True):
            mask = masks[members[i]]
            if not mask & taken:
                taken |= mask
                miss = miss * (1 - weights[i])
        return 1 - miss

    def _pair_screen(self, members: list[int]) -> list[tuple[int, int]]:
        """Indices (i < j) of clause pairs whose partial functions agree.

        Two clauses conflict where they hold different literals of one
        variable.  The numpy screen lays the literal ids out by variable
        (−1 for "not in this clause") and tests all pairs with one
        boolean-array program; id comparisons are exact, so both paths
        return the same pairs in the same order.
        """
        kernel = self.kernel
        k, lit_var, lits = len(members), kernel.lit_var, kernel.lits
        if k >= _NUMPY_SCREEN_MIN:
            column: dict[int, int] = {}
            rows, columns, codes = [], [], []
            for row, clause in enumerate(members):
                for lit in lits[clause]:
                    rows.append(row)
                    columns.append(column.setdefault(lit_var[lit], len(column)))
                    codes.append(lit)
            matrix = np.full((k, len(column)), -1, dtype=np.int64)
            matrix[rows, columns] = codes
            a = matrix[:, None, :]
            b = matrix[None, :, :]
            conflict = ((a >= 0) & (b >= 0) & (a != b)).any(axis=2)
            i_idx, j_idx = np.nonzero(np.triu(~conflict, 1))
            return list(zip(i_idx.tolist(), j_idx.tolist()))

        masks = kernel.masks

        def agree(c_i: int, c_j: int) -> bool:
            shared = masks[c_i] & masks[c_j]
            lits_i = lits[c_i]
            return not shared or all(
                lit in lits_i for lit in lits[c_j] if 1 << lit_var[lit] & shared
            )

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
