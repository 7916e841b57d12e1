"""The coded Shannon solvers against the ``Condition``-level ones they replaced.

Exact decomposition (:func:`probability_by_decomposition`) and the
budgeted bound solver (:func:`dissociation_interval`) walk one
integer-coded clause kernel (:class:`repro.confidence.exact.ClauseKernel`).
The ``Condition``-based solvers the library had before are copied below
as the reference (``_ref_*``); the library keeps no second path.  Equal
means equal ``repr`` — value *and* type — of the exact answer and of
both ends of the enclosure at budgets 0, 1, 4 and 64, over ``Fraction``,
float and mixed W tables.

The corpus targets every order the coding must keep: clauses of three
and four literals in shuffled item order (weights fold in item order),
``{x↦1}`` beside ``{x↦10}`` (clause text order is not literal-id order),
tied branching counts (the tie goes to the least ``repr``), two parents
that condition to equal clauses in different orders, multi-valued,
certain (int ``1``) and out-of-domain values.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confidence import dissociation
from repro.confidence.dissociation import (
    PAIR_CAP,
    _max_spanning_tree_weight,
    dissociation_interval,
    dissociation_intervals,
)
from repro.confidence.dnf import Dnf
from repro.confidence.exact import ClauseKernel, _Decomposition, probability_by_decomposition
from repro.urel.conditions import Condition
from repro.urel.variables import VariableTable
from repro.util.parallel import ShardExecutor, default_workers

BUDGETS = (0, 1, 4, 64)
KINDS = ("fraction", "float", "mixed")
SEEDS = (0, 1, 2)
SCREENS = ("numpy-screen", "python-screen")


# --------------------------------------------------------------------------
# Reference: the Condition-level solvers, as the library had them
# --------------------------------------------------------------------------


class _RefSortKeys(dict):
    def __missing__(self, item):
        key = self[item] = repr(item)
        return key


_REF_SATISFIED = object()


def _ref_condition_on(clauses, var, value):
    # The library's loop let frozenset iteration decide between a
    # shortened clause and an equal one that never mentioned ``var``;
    # this copy keeps the latter, as the kernel does, so the two agree
    # whatever the hash seed.
    out = {clause for clause in clauses if var not in clause}
    for clause in clauses:
        if var in clause and clause[var] == value:
            rest = clause.restricted_to(clause.variables - {var})
            if rest.is_empty:
                return _REF_SATISFIED
            out.add(rest)
    return frozenset(out)


def _ref_connected_components(clauses, keys):
    clause_list = sorted(clauses, key=keys.__getitem__)
    parent = list(range(len(clause_list)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner = {}
    for i, clause in enumerate(clause_list):
        for var in clause.variables:
            if var in owner:
                ri, rj = find(i), find(owner[var])
                if ri != rj:
                    parent[ri] = rj
            else:
                owner[var] = i
    groups = {}
    for i, clause in enumerate(clause_list):
        groups.setdefault(find(i), set()).add(clause)
    return [frozenset(g) for g in groups.values()]


def _ref_branching_variable(clauses, keys):
    counts = {}
    for clause in clauses:
        for var in clause.variables:
            counts[var] = counts.get(var, 0) + 1
    return max(sorted(counts, key=keys.__getitem__), key=lambda v: counts[v])


class _RefDecomposition:
    def __init__(self, w):
        self.w, self._memo, self._keys = w, {}, _RefSortKeys()

    def solve(self, clauses):
        if not clauses:
            return Fraction(0)
        if any(c.is_empty for c in clauses):
            return Fraction(1)
        cached = self._memo.get(clauses)
        if cached is not None:
            return cached
        components = _ref_connected_components(clauses, self._keys)
        if len(components) > 1:
            miss = Fraction(1)
            for component in components:
                miss = miss * (1 - self.solve(component))
            result = 1 - miss
        else:
            var = _ref_branching_variable(clauses, self._keys)
            result = Fraction(0)
            for value in self.w.domain(var):
                reduced = _ref_condition_on(clauses, var, value)
                branch = Fraction(1) if reduced is _REF_SATISFIED else self.solve(reduced)
                result = result + self.w.prob(var, value) * branch
        self._memo[clauses] = result
        return result


def _ref_consistent_pairs(members):
    k = len(members)
    return [
        (i, j) for i in range(k) for j in range(i + 1, k) if members[i].consistent_with(members[j])
    ]


def _ref_pair_weight(w, weight_i, c_i, c_j):
    if weight_i == 0 and type(weight_i) is Fraction:
        return weight_i
    q = weight_i
    seen = c_i.items()
    for item in c_j.items():
        if item not in seen:
            p = w.prob(*item)
            if p == 0:
                return Fraction(0)
            q = q * p
    return q


class _RefBoundSolver:
    def __init__(self, w, budget):
        self.w, self.budget, self._memo, self._keys = w, budget, {}, _RefSortKeys()

    def solve(self, clauses):
        if not clauses:
            return Fraction(0), Fraction(0)
        if any(c.is_empty for c in clauses):
            return Fraction(1), Fraction(1)
        cached = self._memo.get(clauses)
        if cached is not None:
            return cached
        components = _ref_connected_components(clauses, self._keys)
        if len(components) > 1:
            components.sort(key=lambda comp: min(map(self._keys.__getitem__, comp)))
            miss_lower = Fraction(1)
            miss_upper = Fraction(1)
            for component in components:
                lower_c, upper_c = self.solve(component)
                miss_lower = miss_lower * (1 - upper_c)
                miss_upper = miss_upper * (1 - lower_c)
            result = (1 - miss_upper, 1 - miss_lower)
        elif len(clauses) == 1:
            (clause,) = clauses
            p = self.w.weight(clause)
            result = (p, p)
        elif self.budget > 0:
            self.budget -= 1
            var = _ref_branching_variable(clauses, self._keys)
            lower = Fraction(0)
            upper = Fraction(0)
            for value in self.w.domain(var):
                reduced = _ref_condition_on(clauses, var, value)
                if reduced is _REF_SATISFIED:
                    branch = (Fraction(1), Fraction(1))
                else:
                    branch = self.solve(reduced)
                p = self.w.prob(var, value)
                lower = lower + p * branch[0]
                upper = upper + p * branch[1]
            result = (lower, upper)
        else:
            result = self._component_bounds(clauses)
        self._memo[clauses] = result
        return result

    def _component_bounds(self, clauses):
        members = sorted(clauses, key=self._keys.__getitem__)
        weights = [self.w.weight(c) for c in members]
        k = len(members)
        total = Fraction(0)
        for p in weights:
            total = total + p
        best = max(weights)
        if k > PAIR_CAP:
            return best, min(Fraction(1), total)
        consistent = _ref_consistent_pairs(members)
        pair_weight = [[Fraction(0)] * k for _ in range(k)]
        s2 = Fraction(0)
        for i, j in consistent:
            q = _ref_pair_weight(self.w, weights[i], members[i], members[j])
            pair_weight[i][j] = pair_weight[j][i] = q
            s2 = s2 + q
        lower = max(best, total - s2, Fraction(0))
        upper = min(Fraction(1), total - _max_spanning_tree_weight(k, pair_weight))
        if len(consistent) == k * (k - 1) // 2:
            miss = Fraction(1)
            for p in weights:
                miss = miss * (1 - p)
            upper = min(upper, 1 - miss)
        return lower, upper


def _ref_probability(dnf):
    if dnf.is_empty:
        return Fraction(0)
    if dnf.is_trivially_true:
        return Fraction(1)
    return _RefDecomposition(dnf.w).solve(frozenset(dnf.members))


def _ref_interval(dnf, budget):
    if dnf.is_empty:
        return Fraction(0), Fraction(0)
    if dnf.is_trivially_true:
        return Fraction(1), Fraction(1)
    return _RefBoundSolver(dnf.w, budget).solve(frozenset(dnf.members))


# --------------------------------------------------------------------------
# What is compared
# --------------------------------------------------------------------------


def _answers(w, clauses):
    """repr of the exact answer and of each budget's enclosure, library side."""
    out = [repr(probability_by_decomposition(Dnf(clauses, w)))]
    for budget in BUDGETS:
        interval = dissociation_interval(Dnf(clauses, w), budget)
        out.append((repr(interval.lower), repr(interval.upper)))
    return out


def _ref_answers(w, clauses):
    out = [repr(_ref_probability(Dnf(clauses, w)))]
    for budget in BUDGETS:
        out.append(tuple(map(repr, _ref_interval(Dnf(clauses, w), budget))))
    return out


@contextlib.contextmanager
def _screen(name):
    """Run the base case over the numpy or the pure-Python consistency screen."""
    if name == "python-screen":
        with mock.patch.object(dissociation, "_NUMPY_SCREEN_MIN", sys.maxsize):
            yield
    else:
        yield


def _assert_same(w, clauses):
    # repr tells Fraction(1, 2) from 0.5: values and types must both agree.
    assert _answers(w, clauses) == _ref_answers(w, clauses)


# --------------------------------------------------------------------------
# Corpus
# --------------------------------------------------------------------------


def _distribution(kind: str, size: int, rng: random.Random) -> dict:
    """``size`` values; a single value is certain, with the int probability 1."""
    if size == 1:
        return {0: 1}
    parts = [rng.randint(10, 60) for _ in range(size)]
    exact = [Fraction(part, sum(parts)) for part in parts]
    if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
        return dict(enumerate(exact))
    floats = [float(p) * rng.uniform(0.95, 1.05) for p in exact[:-1]]  # every mantissa bit
    return dict(enumerate([*floats, 1 - sum(floats)]))


def _table(kind: str, names, sizes, rng: random.Random) -> VariableTable:
    w = VariableTable()
    for name, size in zip(names, sizes):
        w.add(name, _distribution(kind, size, rng))
    return w


def _shuffled(pairs, rng: random.Random) -> Condition:
    """A condition whose item order is a shuffle of ``pairs``."""
    pairs = list(pairs)
    rng.shuffle(pairs)
    return Condition(pairs)


def _long_clauses(kind, seed):
    """Three- and four-literal clauses over two- and three-valued variables."""
    rng = random.Random(seed)
    names = [("v", i) for i in range(8)]
    w = _table(kind, names, [rng.choice((2, 3)) for _ in names], rng)
    clauses = [
        _shuffled(
            ((v, rng.randrange(len(w.domain(v)))) for v in rng.sample(names, rng.choice((3, 4)))),
            rng,
        )
        for _ in range(14)
    ]
    return w, clauses


def _multi_valued(kind, seed):
    """Up to four values per variable; certain variables; values outside every domain."""
    rng = random.Random(seed)
    names = [("m", i) for i in range(6)] + ["certain"]
    w = _table(kind, names, [rng.randint(2, 4) for _ in range(6)] + [1], rng)
    clauses = []
    for _ in range(12):
        chosen = rng.sample(names, rng.randint(1, 3))
        clauses.append(_shuffled(((v, rng.randrange(5)) for v in chosen), rng))  # 4: absent
    return w, clauses


def _tied_counts(kind, seed):
    """A 7-ring of three-literal clauses: every variable occurs three times."""
    rng = random.Random(seed)
    names = [("r", i) for i in (3, 0, 6, 2, 5, 1, 4)]  # W order is not repr order
    w = _table(kind, names, [2] * 7, rng)
    ring = sorted(names)
    clauses = [
        _shuffled(((ring[(i + d) % 7], 1) for d in (0, 1, 3)), rng) for i in range(7)
    ]
    return w, clauses


def _two_parents(kind, seed):
    """``{a↦0, w, x, y, z}`` and ``{z, y, x, w, a↦1}`` condition to one clause.

    Branching on ``a`` (the most frequent variable) leaves each shortened
    clause, folding in its own parent's order, in a different subproblem:
    alone under ``a↦0``, in a base case beside ``{x, m↦absent}`` (weight
    0) under ``a↦1``.  ``a↦1`` is the likely value, so that base case
    carries the lower bound at budget 1.
    """
    rng = random.Random(seed)
    names = ["m", "w", "x", "y", "z"]
    w = _table(kind, names, [2] * 5, rng)
    if kind == "fraction":
        w.add("a", {0: Fraction(1, 100), 1: Fraction(9, 10), 2: Fraction(9, 100)})
    else:
        w.add("a", {0: 0.01, 1: 0.9, 2: 0.09})
    clauses = [
        Condition([("a", 0), ("w", 1), ("x", 1), ("y", 1), ("z", 1)]),
        Condition([("z", 1), ("y", 1), ("x", 1), ("w", 1), ("a", 1)]),
        Condition([("a", 1), ("x", 1), ("m", "absent")]),
        Condition([("m", 1), ("a", 2)]),
    ]
    return w, clauses


def _subsumed(kind, seed):
    """``{q, p, r, s}`` and ``{b↦1, s, r, p, q}`` meet inside one set.

    Branching on ``b`` shortens the second clause to the first; the clause
    that never mentioned ``b`` is kept, with its own fold order.
    """
    rng = random.Random(seed)
    names = ["b", "p", "q", "r", "s", "t"]
    w = _table(kind, names, [2] * 6, rng)
    clauses = [
        Condition([("q", 1), ("p", 1), ("r", 1), ("s", 1)]),
        Condition([("b", 1), ("s", 1), ("r", 1), ("p", 1), ("q", 1)]),
        Condition([("b", 0), ("t", 1)]),
        Condition([("t", 1), ("b", 1)]),
    ]
    return w, clauses


TEXT_ORDER_NAMES = (1, 10, 100, 1000, 2, 20, 200)  # literal-id order


def _text_order(kind, seed):
    """Read-once clauses over the variables 1, 10, 100, 1000, 2, 20, 200.

    ``"{10↦1}" < "{1↦1}"`` as text, while the literal of 1 ranks before
    that of 10: components are solved, and their misses multiplied, in
    text order, not in literal-id order.  The read-once clauses are rare
    events, so the last bit of their miss product reaches the answer.
    """
    rng = random.Random(seed)
    w = VariableTable()
    for name in TEXT_ORDER_NAMES:
        p = Fraction(rng.randint(2, 8), 100)
        if kind == "float" or (kind == "mixed" and rng.random() < 0.5):
            p = float(p) * rng.uniform(0.95, 1.05)
        w.add(name, {1: p, 0: 1 - p})
    w.add("x", dict(zip((1, 10, 100), _distribution(kind, 3, rng).values())))
    for name in ("y", "z"):
        w.add(name, _distribution(kind, 2, rng))
    clauses = [Condition({name: 1}) for name in TEXT_ORDER_NAMES]
    clauses += [
        Condition([("x", 1), ("y", 1)]),
        Condition([("x", 10), ("y", 1)]),
        Condition([("x", 100), ("y", 1)]),
        Condition([("z", 1), ("x", 1)]),
        Condition([("y", 0), ("z", 1)]),
    ]
    return w, clauses


def _value_text_order(kind, seed):
    """``{w, x↦1}`` … ``{w, x↦1000}`` in one component: base-case members by text.

    The value ends the text, so ``"{'w'↦1, 'x'↦10}"`` sorts first.
    """
    rng = random.Random(seed)
    w = VariableTable()
    w.add("x", dict(zip((1, 10, 100, 1000), _distribution(kind, 4, rng).values())))
    for name in ("w", "z"):
        w.add(name, _distribution(kind, 2, rng))
    clauses = [Condition([("x", value), ("w", 1)]) for value in (1, 10, 100, 1000)]
    clauses += [Condition([("z", 1), ("x", 1)]), Condition([("w", 0), ("z", 1)])]
    return w, clauses


def _bipartite(kind, seed):
    """A 7 × 7 circulant bipartite 2-DNF, half its clauses written y-first."""
    rng = random.Random(seed)
    names = [(half, i) for half in "xy" for i in range(7)]
    w = _table(kind, names, [2] * 14, rng)
    clauses = []
    for i in range(7):
        for d in (0, 1, 3):
            pairs = [(("x", i), 1), (("y", (i + d) % 7), 1)]
            clauses.append(Condition(pairs[::-1] if rng.random() < 0.5 else pairs))
    return w, clauses


def _zero_folds(kind, seed):
    """Every clause weighs ``Fraction(0)``: a float factor, then a value outside W."""
    rng = random.Random(seed)
    w = _table("float", ["p", "q", "r"], [2, 2, 2], rng)
    w.add("m", _distribution(kind, 2, rng))
    return w, [
        Condition([("p", 1), ("m", "absent")]),
        Condition([("q", 1), ("m", "absent")]),
        Condition([("r", 0), ("q", 1), ("m", "absent")]),
    ]


SHAPES = {
    "three-four-literal": _long_clauses,
    "multi-valued": _multi_valued,
    "tied-counts": _tied_counts,
    "two-parents": _two_parents,
    "subsumed": _subsumed,
    "text-order": _text_order,
    "value-text-order": _value_text_order,
    "bipartite": _bipartite,
    "zero-folds": _zero_folds,
}
CORPUS = {
    f"{kind}/{shape}/{seed}": (SHAPES[shape], kind, seed)
    for kind in KINDS
    for shape in SHAPES
    for seed in SEEDS
}


def _case(name):
    build, kind, seed = CORPUS[name]
    return build(kind, seed)


def corpus_answers() -> dict:
    """Every corpus case's library answers (the hash-seed subprocess prints these)."""
    return {name: _answers(*_case(name)) for name in sorted(CORPUS)}


# --------------------------------------------------------------------------
# Tests
# --------------------------------------------------------------------------


@pytest.mark.parametrize("screen", SCREENS)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus(name, screen):
    with _screen(screen):
        _assert_same(*_case(name))


def test_single_clauses_keep_their_fold_and_their_zero():
    """One clause: the enclosure is its weight, folded in its own item order."""
    rng = random.Random(7)
    w = _table("float", ["a", "b", "c", "d"], [2] * 4, rng)
    for order in (("a", "b", "c", "d"), ("d", "c", "b", "a"), ("b", "d", "a", "c")):
        _assert_same(w, [Condition([(v, 1) for v in order])])
    zero = dissociation_interval(Dnf([Condition([("a", 1), ("b", 9)])], w), 0)
    assert repr(zero.lower) == repr(zero.upper) == "Fraction(0, 1)"


def test_the_float_cases_can_tell_the_orders_apart():
    """The orders the corpus pins move a float's last bit on some seed: not vacuous."""

    def folds(factors):
        product = Fraction(1)
        for factor in factors:
            product = product * factor
        return product

    def sensitive(seed):
        w, _ = _two_parents("float", seed)
        p = [w.prob(v, 1) for v in "wxyz"]
        two_parents = folds(p) != folds(p[::-1])
        # the miss product over _text_order's components, by text and by literal id
        w, clauses = _text_order("float", seed)
        kernel = ClauseKernel(Dnf(clauses, w))
        components = kernel.components(kernel.clauses)
        misses = [1 - _Decomposition(kernel).solve(c) for c in components]
        by_ids = sorted(range(len(components)), key=lambda i: min(components[i]))
        assert by_ids != list(range(len(components)))
        text_order = folds(misses) != folds([misses[i] for i in by_ids])
        # Σ p_i over _value_text_order's base-case members, by text and by literal id
        w, clauses = _value_text_order("float", seed)
        kernel = ClauseKernel(Dnf(clauses, w))
        by_text = sorted(kernel.clauses, key=kernel.texts.__getitem__)
        by_tuple = sorted(kernel.clauses)
        assert by_text != by_tuple
        value_order = sum(map(kernel.weight, by_text)) != sum(map(kernel.weight, by_tuple))
        return two_parents, text_order, value_order

    assert all(map(any, zip(*map(sensitive, SEEDS))))


@pytest.mark.parametrize("screen", SCREENS)
@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    sizes=st.lists(st.integers(1, 4), min_size=2, max_size=7),
    specs=st.lists(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4)), min_size=1, max_size=4),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(0, 2**16),
)
def test_hypothesis_drawn_dnfs(screen, kind, sizes, specs, seed):
    """Drawn tables and clauses; a clause's items keep the order they were drawn in."""
    rng = random.Random(seed)
    names = [("v", i) for i in range(len(sizes))]
    w = _table(kind, names, sizes, rng)
    clauses = []
    for spec in specs:
        pairs = {}
        for var, value in spec:  # value 4 lies outside every domain
            pairs.setdefault(names[var % len(names)], value)
        clauses.append(Condition(list(pairs.items())))
    with _screen(screen):
        _assert_same(w, clauses)


def test_answers_do_not_move_with_the_hash_seed():
    """The kernel's orders are functions of the data: two hash seeds, one answer."""
    script = (
        "import sys; sys.path.insert(0, {tests!r})\n"
        "import test_coded_solver as t\n"
        "print(repr(t.corpus_answers()))\n"
    ).format(tests=str(pathlib.Path(__file__).parent))
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].strip() == repr(corpus_answers())


@pytest.mark.parametrize("workers", sorted({2, default_workers()}))
def test_sharded_enclosure_batches_solve_in_pool_workers(workers):
    """A pooled ``dissociation_intervals`` batch codes and solves in the workers."""
    cases = [_case(name) for name in sorted(CORPUS)]
    with ShardExecutor(workers, min_shard_items=1) as executor:
        for budget in BUDGETS:
            dnfs = [Dnf(clauses, w) for w, clauses in cases]
            pooled = dissociation_intervals(dnfs, budget, executor=executor)
            got = [(repr(iv.lower), repr(iv.upper)) for iv in pooled]
            want = [tuple(map(repr, _ref_interval(dnf, budget))) for dnf in dnfs]
            assert got == want, budget
