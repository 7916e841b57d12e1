"""The sampled path's inner kernels against the loops they replaced.

Two array programs compute what per-clause Python loops used to, and
must compute *the same numbers in the same order*:

* the numpy trial blocks of :mod:`repro.confidence.batch` (Karp–Luby
  and shared-world blocks; the naive estimate is a shared-world block of
  one disjunction) — a gather of the dense clause-code
  table instead of one mask and one write per clause, one equality
  matrix over the distinct literals ANDed per clause length instead of a
  per-clause AND loop, narrow codes drawn one column at a time;
* the pairwise base case of :mod:`repro.confidence.dissociation` — over
  integer-coded clauses (:class:`~repro.confidence.exact.ClauseKernel`),
  q_ij folded on from p_i over the literals c_j adds instead of
  re-weighing a built union, the pair weights in a k × k matrix instead
  of a dict, the consistency screen over literal ids.

The loop bodies the library used before are copied below as the
reference (``_ref_*``); the library keeps no second kernel.  Equal means
equal positives for every block, and equal ``lower``/``upper`` values
*and types* for every component.
"""

from __future__ import annotations

import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confidence import dissociation
from repro.confidence.batch import (
    _EncodedDnf,
    _karp_luby_trial_block,
    _np_karp_luby_block,
    _np_sample_block,
    _shared_trial_block,
)
from repro.confidence.dissociation import PAIR_CAP, _BoundSolver
from repro.confidence.dnf import Dnf
from repro.confidence.exact import ClauseKernel
from repro.generators.hard import chain_dnf, circulant_2dnf
from repro.urel.conditions import Condition
from repro.urel.variables import VariableTable


# --------------------------------------------------------------------------
# Reference trial kernels: the per-clause loops, as the library had them
# --------------------------------------------------------------------------


def _ref_sample_block(enc, n, nrng):
    block = np.empty((n, len(enc.variables)), dtype=np.int64)
    for column, cum in enumerate(enc.cumulative_probs):
        u = nrng.random(n)
        codes = np.searchsorted(np.asarray(cum), u, side="right")
        block[:, column] = np.minimum(codes, len(cum) - 1)
    return block


def _ref_satisfaction(enc, block):
    n = block.shape[0]
    size = len(enc.member_pairs)
    sat = np.empty((n, size), dtype=bool)
    for j, pairs in enumerate(enc.member_pairs):
        if not pairs:
            sat[:, j] = True
            continue
        m = block[:, pairs[0][0]] == pairs[0][1]
        for column, code in pairs[1:]:
            m &= block[:, column] == code
        sat[:, j] = m
    return sat


def _ref_karp_luby_block(enc, n, nrng):
    cum = np.asarray(enc.cumulative_weights)
    u = nrng.random(n) * enc.total_weight
    choice = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    block = _ref_sample_block(enc, n, nrng)
    for j, pairs in enumerate(enc.member_pairs):
        rows = choice == j
        if not rows.any():
            continue
        for column, code in pairs:
            block[rows, column] = code
    sat = _ref_satisfaction(enc, block)
    first = sat.argmax(axis=1)
    return int((first == choice).sum())


def _ref_naive_block(enc, n, nrng):
    block = _ref_sample_block(enc, n, nrng)
    return int(_ref_satisfaction(enc, block).any(axis=1).sum())


def _ref_shared_block(encoders, n, seed):
    block = _ref_sample_block(encoders[0], n, np.random.default_rng(seed))
    return [int(_ref_satisfaction(enc, block).any(axis=1).sum()) for enc in encoders]


# --------------------------------------------------------------------------
# Kernel corpus
# --------------------------------------------------------------------------


def _boolean_dnf() -> Dnf:
    """The ``sampled_conf`` shape: a side-12 5-regular bipartite 2-DNF."""
    return circulant_2dnf(12, offsets=(0, 1, 2, 3, 4), rng=3)


def _valued_table(domain: int, n_vars: int, floats: bool) -> VariableTable:
    w = VariableTable()
    rng = random.Random(domain * 31 + n_vars)
    for i in range(n_vars):
        raw = [rng.randint(1, 9) for _ in range(domain)]
        dist = {v: Fraction(r, sum(raw)) for v, r in enumerate(raw)}
        w.add(("v", i), {v: float(p) for v, p in dist.items()} if floats else dist)
    return w


def _valued_dnf(domain: int, n_vars: int = 6, n_clauses: int = 9, seed: int = 0) -> Dnf:
    """Random clauses of mixed length over ``domain``-valued variables."""
    w = _valued_table(domain, n_vars, floats=domain % 2 == 1)
    rng = random.Random(seed)
    clauses = []
    for _ in range(n_clauses):
        chosen = rng.sample(range(n_vars), rng.randint(1, 3))
        clauses.append(Condition({("v", i): rng.randrange(domain) for i in chosen}))
    return Dnf(clauses, w)


def _out_of_domain_dnf() -> Dnf:
    """Clauses naming values outside their domain (weight 0, code −1)."""
    w = _valued_table(3, 4, floats=False)
    return Dnf(
        [
            Condition({("v", 0): 1, ("v", 1): 2}),
            Condition({("v", 1): 7}),  # out of domain, alone
            Condition({("v", 2): 0, ("v", 3): "absent"}),  # out of domain, with another
            Condition({("v", 3): 0}),
            Condition({("v", 0): 2, ("v", 2): 1, ("v", 3): 2}),
        ],
        w,
    )


def _empty_clause_dnf() -> Dnf:
    w = _valued_table(2, 3, floats=True)
    return Dnf([Condition({("v", 0): 1}), Condition(), Condition({("v", 1): 0, ("v", 2): 1})], w)


def _single_clause_dnf() -> Dnf:
    w = _valued_table(3, 3, floats=False)
    return Dnf([Condition({("v", 0): 2, ("v", 2): 0})], w)


def _zero_weight_dnf() -> Dnf:
    """Every clause has weight 0: the member choice lands on the last one."""
    w = _valued_table(2, 2, floats=False)
    return Dnf([Condition({("v", 0): 5}), Condition({("v", 1): 1, ("v", 0): 9})], w)


def _long_clause_dnf() -> Dnf:
    """Clauses of five to nine literals: longer than any drawn below."""
    w = _valued_table(3, 12, floats=True)
    rng = random.Random(7)
    clauses = [
        Condition({("v", i): rng.randrange(3) for i in rng.sample(range(12), length)})
        for length in (5, 9, 6, 7, 5, 8)
    ]
    return Dnf(clauses, w)


def _subsumed_clause_dnf() -> Dnf:
    """Clauses implying earlier or later ones: one world satisfies many.

    A Karp–Luby trial counts only when its chosen clause is the first
    satisfied one, so the kernels must break these ties by member index
    exactly as the loops do.
    """
    w = _valued_table(2, 4, floats=False)
    return Dnf(
        [
            Condition({("v", 0): 1, ("v", 1): 0, ("v", 2): 1}),
            Condition({("v", 0): 1}),
            Condition({("v", 0): 1, ("v", 1): 0}),
            Condition({("v", 3): 0}),
            Condition({("v", 3): 0, ("v", 2): 1}),
        ],
        w,
    )


def _mixed_weight_types_dnf() -> Dnf:
    """One disjunction over ``Fraction``-weighted and float-weighted variables."""
    w = VariableTable()
    w.add(("v", 0), {0: Fraction(1, 6), 1: Fraction(1, 3), 2: Fraction(1, 2)})
    w.add(("v", 1), {0: 0.25, 1: 0.75})
    w.add(("v", 2), {v: Fraction(v + 1, 10) for v in range(4)})
    w.add(("v", 3), {0: 0.5, 1: 0.3, 2: 0.2})
    return Dnf(
        [
            Condition({("v", 0): 2, ("v", 1): 1}),
            Condition({("v", 1): 0, ("v", 2): 3}),
            Condition({("v", 3): 1}),
            Condition({("v", 0): 0, ("v", 2): 1, ("v", 3): 2}),
        ],
        w,
    )


KERNEL_CORPUS = {
    "boolean-bipartite": _boolean_dnf,
    "boolean-mixed-lengths": lambda: _valued_dnf(2, seed=1),
    "three-valued": lambda: _valued_dnf(3, seed=2),
    "two-hundred-valued": lambda: _valued_dnf(200, n_vars=4, seed=3),
    "out-of-domain": _out_of_domain_dnf,
    "empty-clause": _empty_clause_dnf,
    "single-clause": _single_clause_dnf,
    "zero-weight": _zero_weight_dnf,
    "long-clauses": _long_clause_dnf,
    "subsumed-clauses": _subsumed_clause_dnf,
    "mixed-weight-types": _mixed_weight_types_dnf,
    "chain": lambda: chain_dnf(8),
}
BLOCK_SIZES = (1, 4096, 40_000)


class TestTrialKernels:
    """Each numpy block kernel counts what the per-clause loops counted."""

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("name", sorted(KERNEL_CORPUS))
    def test_karp_luby_block(self, name, n):
        enc = _EncodedDnf(KERNEL_CORPUS[name]())
        for seed in (0, 17):
            expected = _ref_karp_luby_block(enc, n, np.random.default_rng(seed))
            assert _karp_luby_trial_block(enc, n, seed) == expected

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("name", sorted(KERNEL_CORPUS))
    def test_naive_block(self, name, n):
        enc = _EncodedDnf(KERNEL_CORPUS[name]())
        for seed in (0, 17):
            expected = _ref_naive_block(enc, n, np.random.default_rng(seed))
            assert _shared_trial_block([enc], n, seed) == [expected]

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_shared_block(self, n):
        w = _valued_table(3, 6, floats=True)
        rng = random.Random(5)
        dnfs = []
        for _ in range(4):
            chosen = [rng.sample(range(6), size) for size in (1, 2, 3, 2)]
            clauses = [Condition({("v", i): rng.randrange(4) for i in c}) for c in chosen]
            dnfs.append(Dnf(clauses, w))
        variables = sorted(set().union(*(dnf.variables for dnf in dnfs)), key=repr)
        encoders = [_EncodedDnf(dnf, variables) for dnf in dnfs]
        for seed in (0, 17):
            expected = _ref_shared_block(encoders, n, seed)
            assert _shared_trial_block(encoders, n, seed) == expected

    @pytest.mark.parametrize("name", sorted(KERNEL_CORPUS))
    def test_draws_leave_the_stream_where_the_loops_left_it(self, name):
        enc = _EncodedDnf(KERNEL_CORPUS[name]())
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        assert _np_karp_luby_block(enc, 257, ours) == _ref_karp_luby_block(enc, 257, theirs)
        assert ours.random() == theirs.random()
        # A naive (shared-world) block draws through the world sampler alone.
        assert (_np_sample_block(enc, 257, ours) == _ref_sample_block(enc, 257, theirs)).all()
        assert ours.random() == theirs.random()

    def test_sampled_codes_equal_the_clamped_searchsorted(self):
        for name in sorted(KERNEL_CORPUS):
            enc = _EncodedDnf(KERNEL_CORPUS[name]())
            block = _np_sample_block(enc, 4096, np.random.default_rng(4))
            expected = _ref_sample_block(enc, 4096, np.random.default_rng(4))
            assert (block == expected).all(), name

    def test_code_width(self):
        assert _EncodedDnf(_boolean_dnf()).fixed.dtype == np.int8
        assert _EncodedDnf(_valued_dnf(3)).fixed.dtype == np.int8
        assert _EncodedDnf(_valued_dnf(200, n_vars=4)).fixed.dtype == np.int64
        block = _np_sample_block(_EncodedDnf(_boolean_dnf()), 16, np.random.default_rng(0))
        assert block.dtype == np.int8

    @settings(max_examples=60, deadline=None)
    @given(
        domains=st.lists(st.integers(1, 4), min_size=1, max_size=6),
        clause_specs=st.lists(
            st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), max_size=4),
            min_size=1,
            max_size=10,
        ),
        floats=st.booleans(),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_hypothesis_drawn_dnfs(self, domains, clause_specs, floats, n, seed):
        w = VariableTable()
        for i, size in enumerate(domains):
            dist = {v: Fraction(v + 1, size * (size + 1) // 2) for v in range(size)}
            w.add(("v", i), {v: float(p) for v, p in dist.items()} if floats else dist)
        clauses = [
            Condition({("v", var % len(domains)): value for var, value in spec})
            for spec in clause_specs
        ]
        enc = _EncodedDnf(Dnf(clauses, w))
        expected = _ref_karp_luby_block(enc, n, np.random.default_rng(seed))
        assert _karp_luby_trial_block(enc, n, seed) == expected
        expected = _ref_naive_block(enc, n, np.random.default_rng(seed))
        assert _shared_trial_block([enc], n, seed) == [expected]


def test_block_peak_memory_is_no_higher_than_the_loops():
    """A 40 000-trial block of the ``sampled_conf`` shape: transient peak."""
    enc = _EncodedDnf(_boolean_dnf())
    n = 40_000

    def peak(run) -> int:
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            run()
            _, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return top - before

    reference = peak(lambda: _ref_karp_luby_block(enc, n, np.random.default_rng(1)))
    ours = peak(lambda: _karp_luby_trial_block(enc, n, 1))
    assert ours <= reference, (ours, reference)
    assert _np_sample_block(enc, n, np.random.default_rng(1)).dtype == np.int8


# --------------------------------------------------------------------------
# Reference base case: the union-building loop, as the library had it
# --------------------------------------------------------------------------


def _ref_max_spanning_tree_weight(k, pair_weight):
    if k <= 1:
        return Fraction(0)

    def edge(i, j):
        return pair_weight.get((i, j) if i < j else (j, i), Fraction(0))

    in_tree = [False] * k
    in_tree[0] = True
    best = [edge(0, i) for i in range(k)]
    total = Fraction(0)
    for _ in range(k - 1):
        pick = -1
        for i in range(k):
            if not in_tree[i] and (pick < 0 or best[i] > best[pick]):
                pick = i
        in_tree[pick] = True
        total = total + best[pick]
        for i in range(k):
            if not in_tree[i]:
                w = edge(pick, i)
                if w > best[i]:
                    best[i] = w
    return total


def _ref_consistent_pairs(members):
    k = len(members)
    return [
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if members[i].consistent_with(members[j])
    ]


def _ref_component_bounds(w, clauses):
    members = sorted(clauses, key=repr)
    weights = [w.weight(c) for c in members]
    k = len(members)
    total = Fraction(0)
    for p in weights:
        total = total + p
    best = max(weights)
    if k > PAIR_CAP:
        return best, min(Fraction(1), total)

    consistent = _ref_consistent_pairs(members)
    pair_weight = {}
    s2 = Fraction(0)
    for i, j in consistent:
        q = w.weight(members[i].union(members[j]))
        pair_weight[(i, j)] = q
        s2 = s2 + q

    lower = max(best, total - s2, Fraction(0))
    upper = min(Fraction(1), total - _ref_max_spanning_tree_weight(k, pair_weight))
    if len(consistent) == k * (k - 1) // 2:
        miss = Fraction(1)
        for p in weights:
            miss = miss * (1 - p)
        upper = min(upper, 1 - miss)
    return lower, upper


def _assert_same_bounds(w, clauses):
    clauses = frozenset(clauses)
    kernel = ClauseKernel(Dnf(clauses, w))
    ours = _BoundSolver(kernel, 0)._component_bounds(kernel.clauses)
    theirs = _ref_component_bounds(w, clauses)
    # repr tells Fraction(1, 2) from 0.5: values and types must both agree.
    assert list(map(repr, ours)) == list(map(repr, theirs))


# --------------------------------------------------------------------------
# Base-case corpus
# --------------------------------------------------------------------------


def _probability(kind: str, rng: random.Random):
    p = Fraction(rng.randint(10, 60), 100)
    if kind == "float" or (kind == "mixed" and rng.random() < 0.5):
        return round(float(p) + rng.uniform(-0.004, 0.004), 4)
    return p


def _bipartite_clauses(kind: str, side: int, offsets, seed: int):
    rng = random.Random(seed)
    w = VariableTable()
    for half in "xy":
        for i in range(side):
            p = _probability(kind, rng)
            w.add((half, i), {1: p, 0: 1 - p})
    clauses = [
        Condition({("x", i): 1, ("y", (i + d) % side): 1}) for i in range(side) for d in offsets
    ]
    return w, clauses


def _multi_valued_clauses(kind: str, n_clauses: int, seed: int):
    """Three-valued and certain (int ``1``) variables, out-of-domain values.

    Pairs that demand two values of one variable are inconsistent, so the
    all-pairs FKG bound is off and Hunter's tree carries the upper bound.
    """
    rng = random.Random(seed)
    w = VariableTable()
    for i in range(6):
        a, b = _probability(kind, rng), _probability(kind, rng)
        rest = 1 - a - b if a + b < 1 else None
        dist = {"a": a, "b": b, "c": rest} if rest and rest > 0 else {"a": a, "b": 1 - a}
        w.add(("m", i), dist)
    w.add("certain", {0: 1})
    clauses = set()
    while len(clauses) < n_clauses:
        chosen = rng.sample(range(6), rng.randint(1, 3))
        pairs = {("m", i): rng.choice("abcz") for i in chosen}  # "z": outside every domain
        if rng.random() < 0.3:
            pairs["certain"] = 0
        clauses.add(Condition(pairs))
    return w, sorted(clauses, key=repr)


BASE_CORPUS = {
    f"{kind}/{shape}": (kind, shape)
    for kind in ("fraction", "float", "mixed")
    for shape in ("pair-cap", "pair-cap+1", "sampled-conf", "multi-valued", "multi-valued-cap")
}


def _base_case(kind: str, shape: str):
    if shape == "pair-cap":  # 12 × 4 = PAIR_CAP clauses
        return _bipartite_clauses(kind, 12, (0, 1, 2, 3), seed=1)
    if shape == "pair-cap+1":  # K_{7,7}: PAIR_CAP + 1 clauses
        return _bipartite_clauses(kind, 7, range(7), seed=2)
    if shape == "sampled-conf":
        return _bipartite_clauses(kind, 12, (0, 1, 2, 3, 4), seed=3)
    if shape == "multi-valued":
        return _multi_valued_clauses(kind, 20, seed=4)
    return _multi_valued_clauses(kind, PAIR_CAP, seed=5)


@pytest.fixture(params=["numpy-screen", "python-screen"])
def screen(request, monkeypatch):
    """Run the base case over both consistency screens."""
    if request.param == "python-screen":
        monkeypatch.setattr(dissociation, "_NUMPY_SCREEN_MIN", sys.maxsize)
    return request.param


class TestComponentBounds:
    """The pairwise base case returns the loop's bounds, value and type."""

    def test_corpus_sizes(self):
        assert len(_base_case("float", "pair-cap")[1]) == PAIR_CAP
        assert len(_base_case("float", "pair-cap+1")[1]) == PAIR_CAP + 1
        assert len(_base_case("float", "multi-valued-cap")[1]) == PAIR_CAP

    @pytest.mark.parametrize("name", sorted(BASE_CORPUS))
    def test_corpus(self, name, screen):
        w, clauses = _base_case(*BASE_CORPUS[name])
        _assert_same_bounds(w, clauses)
        # and every prefix, so small components and other pair sets show too
        for size in (2, 3, 9, 17):
            _assert_same_bounds(w, clauses[:size])

    def test_zero_weight_clause_keeps_its_fraction(self, screen):
        w = VariableTable()
        w.add("x", {1: 0.25, 0: 0.75})
        w.add("y", {1: Fraction(1, 3), 0: Fraction(2, 3)})
        w.add("z", {0: 1})
        clauses = [
            Condition({"x": 1, "y": 7}),  # zero factor after a float one
            Condition({"y": 9, "x": 1}),  # zero factor first
            Condition({"x": 1, "z": 0}),
            Condition({"y": 1, "z": 0}),
            Condition({"z": 0, "x": 0, "y": 1}),
        ]
        _assert_same_bounds(w, clauses)

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["fraction", "float", "mixed"]),
        clause_specs=st.lists(
            st.dictionaries(st.integers(0, 6), st.integers(0, 3), min_size=1, max_size=3),
            min_size=2,
            max_size=14,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_hypothesis_drawn_components(self, kind, clause_specs, seed):
        rng = random.Random(seed)
        w = VariableTable()
        for i in range(7):
            size = rng.randint(1, 3)
            if size == 1:
                w.add(i, {0: 1})
            else:
                first = _probability(kind, rng)
                rest = [(1 - first) / (size - 1)] * (size - 1)
                w.add(i, dict(zip(range(size), [first, *rest])))
        clauses = {Condition(spec) for spec in clause_specs}  # value 3: often out of domain
        _assert_same_bounds(w, clauses)
