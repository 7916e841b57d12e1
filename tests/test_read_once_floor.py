"""The read-once floor under every base-case lower bound.

At budget exhaustion the bound solver's component lower bound is
``max(max_i p_i, Σp_i − Σ_{i<j} q_ij, 0, L_ro)``.  ``L_ro`` visits the
component's clauses by descending weight (ties in clause-text order),
keeps a clause when it shares no variable with any clause kept so far,
and folds ``1 − ∏(1 − p_i)`` over the kept ones in that order: kept
clauses are independent events, so their union's probability is exact,
and it is a lower bound on the whole component — for multi-valued
variables and weight-0 clauses too.

Pinned here: the enclosure still holds the enumerated probability; the
floor only ever raises the lower bound and never moves the upper one;
the interval is a function of the clause set (member order, hash seed);
and the base case's three candidates each still win somewhere — the
floor on variable-disjoint subsets (also past ``PAIR_CAP``), Kounias's
sum on clauses that all share a variable, in a few hand-computed cases.
"""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.confidence import Dnf, dissociation_interval, probability_by_enumeration
from repro.confidence.dissociation import DEFAULT_BOUND_BUDGET, PAIR_CAP, _BoundSolver
from repro.urel.conditions import Condition
from repro.urel.variables import VariableTable

BUDGETS = (0, 1, DEFAULT_BOUND_BUDGET)
KINDS = ("fraction", "float", "mixed")
FLOAT_SLACK = 1e-9  # float folds in different orders may differ in the last bits


def _weights(kind: str, size: int, rng: random.Random) -> list:
    """``size`` probabilities summing to 1 (exactly, for Fractions)."""
    parts = [rng.randint(5, 60) for _ in range(size)]
    exact = [Fraction(part, sum(parts)) for part in parts]
    if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
        return exact
    floats = [float(p) for p in exact[:-1]]
    return [*floats, 1 - sum(floats)]


def _drawn(kind: str, sizes: list[int], specs: list[list[tuple[int, int]]], seed: int):
    """A W table over ``sizes``-valued variables and the clauses ``specs`` name.

    A spec item ``(variable, value)`` with ``value`` past the variable's
    domain gives its clause weight 0.
    """
    rng = random.Random(seed)
    w = VariableTable()
    names = [("v", i) for i in range(len(sizes))]
    for name, size in zip(names, sizes):
        w.add(name, dict(enumerate(_weights(kind, size, rng))))
    clauses = []
    for spec in specs:
        pairs: dict = {}
        for var, value in spec:
            pairs.setdefault(names[var % len(names)], value)
        clauses.append(Condition(list(pairs.items())))
    return w, clauses


def _without_floor(dnf: Dnf, budget: int):
    """The enclosure the solver gave before the floor: ``max(best, Σp − Σq, 0)``."""
    with mock.patch.object(_BoundSolver, "_read_once_floor", lambda self, m, w: Fraction(0)):
        return dissociation_interval(dnf, budget)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    sizes=st.lists(st.integers(1, 4), min_size=2, max_size=6),
    specs=st.lists(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), min_size=1, max_size=3),
        min_size=1,
        max_size=9,
    ),
    seed=st.integers(0, 2**16),
)
def test_floor_keeps_the_enclosure_and_only_raises_the_lower_bound(kind, sizes, specs, seed):
    w, clauses = _drawn(kind, sizes, specs, seed)
    truth = probability_by_enumeration(Dnf(clauses, w))
    slack = 0 if kind == "fraction" else FLOAT_SLACK
    shuffled = list(clauses)
    random.Random(seed).shuffle(shuffled)
    for budget in BUDGETS:
        interval = dissociation_interval(Dnf(clauses, w), budget)
        assert interval.lower - slack <= truth <= interval.upper + slack
        assert interval.lower <= interval.upper + slack
        before = _without_floor(Dnf(clauses, w), budget)
        assert interval.lower >= before.lower
        assert repr(interval.upper) == repr(before.upper)
        again = dissociation_interval(Dnf(shuffled, w), budget)
        assert (repr(again.lower), repr(again.upper)) == (
            repr(interval.lower),
            repr(interval.upper),
        )


def drawn_corpus() -> list:
    """A fixed corpus of 40 drawn ``(w, clauses)`` cases, every kind of W."""
    rng = random.Random(44)
    out = []
    for case in range(40):
        kind = KINDS[case % 3]
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 6))]
        specs = [
            [(rng.randrange(6), rng.randrange(5)) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(2, 9))
        ]
        out.append(_drawn(kind, sizes, specs, case))
    return out


def corpus_answers() -> list:
    """Budget-0 and default enclosures of :func:`drawn_corpus`, as ``repr`` text."""
    out = []
    for w, clauses in drawn_corpus():
        for budget in (0, DEFAULT_BOUND_BUDGET):
            interval = dissociation_interval(Dnf(clauses, w), budget)
            out.append((repr(interval.lower), repr(interval.upper)))
    return out


def test_answers_do_not_move_with_the_hash_seed():
    """The visit order is a function of the data: two hash seeds, one answer."""
    script = (
        "import sys; sys.path.insert(0, {tests!r})\n"
        "import test_read_once_floor as t\n"
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


def _binary(w: VariableTable, name, p) -> None:
    w.add(name, {1: p, 0: 1 - p})


def test_ties_are_visited_in_text_order():
    """``{a, b}``, ``{b, c}``, ``{c, d}`` weigh the same: text order keeps the outer two."""
    w = VariableTable()
    for name in "abcd":
        _binary(w, name, Fraction(9, 10))
    clauses = [Condition({x: 1, y: 1}) for x, y in ("cd", "bc", "ab")]
    interval = dissociation_interval(Dnf(clauses, w), 0)
    p = Fraction(81, 100)
    assert interval.lower == 1 - (1 - p) * (1 - p)  # Kounias: 3p − Σq = 0.3159
    assert interval.lower <= probability_by_enumeration(Dnf(clauses, w)) <= interval.upper


def test_heaviest_clause_is_visited_first():
    """``{a,b}`` (1/4) meets ``{a,c}`` and ``{b,d}`` (9/20 each), which share nothing.

    By descending weight the two heavy clauses are kept; text order and
    ascending weight would both start at ``{a,b}`` and keep it alone.
    """
    w = VariableTable()
    for name, tenths in zip("abcd", (5, 5, 9, 9)):
        _binary(w, name, Fraction(tenths, 10))
    clauses = [Condition({x: 1, y: 1}) for x, y in ("ab", "ac", "bd")]
    interval = dissociation_interval(Dnf(clauses, w), 0)
    assert interval.lower == 1 - (1 - Fraction(9, 20)) ** 2  # Kounias: 199/400
    assert interval.lower <= probability_by_enumeration(Dnf(clauses, w))


def test_floor_lifts_the_pair_cap_branch():
    """Past ``PAIR_CAP`` the base case had only ``max p_i``; the floor folds a matching."""
    side = 7
    assert side * side > PAIR_CAP
    w = VariableTable()
    for half in "xy":
        for i in range(side):
            _binary(w, (half, i), Fraction(1, 2))
    clauses = [Condition({("x", i): 1, ("y", j): 1}) for i in range(side) for j in range(side)]
    interval = dissociation_interval(Dnf(clauses, w), 0)
    # Ties everywhere: text order pairs x_i with y_0 first, which blocks
    # every later clause of y_0 and of x_i — the kept set is a perfect matching.
    assert interval.lower == 1 - Fraction(3, 4) ** side
    assert interval.upper == 1
    assert _without_floor(Dnf(clauses, w), 0).lower == Fraction(1, 4)


def test_kounias_still_wins_where_every_clause_shares_a_variable():
    """A shared hub leaves one clause in the floor; Σp − Σq carries the lower bound."""
    w = VariableTable()
    _binary(w, "h", Fraction(1, 2))
    for i in range(4):
        _binary(w, ("x", i), Fraction(1, 5))
    clauses = [Condition({"h": 1, ("x", i): 1}) for i in range(4)]
    interval = dissociation_interval(Dnf(clauses, w), 0)
    assert interval.lower == 4 * Fraction(1, 10) - 6 * Fraction(1, 50)
    assert interval.lower > Fraction(1, 10)  # the best clause, and the floor


def test_weight_zero_and_multi_valued_clauses():
    """A clause outside W weighs 0 and adds nothing; clashing values are disjoint."""
    w = VariableTable()
    w.add("m", {0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(1, 6)})
    _binary(w, "x", Fraction(3, 4))
    _binary(w, "y", Fraction(3, 4))
    clauses = [
        Condition({"m": 0, "x": 1}),
        Condition({"m": 1, "y": 1}),
        Condition({"m": 2, "x": 1, "y": 1}),
        Condition({"m": 9, "y": 1}),  # 9 lies outside m's domain
    ]
    truth = probability_by_enumeration(Dnf(clauses, w))
    for budget in (0, 1):
        interval = dissociation_interval(Dnf(clauses, w), budget)
        assert interval.lower <= truth <= interval.upper
