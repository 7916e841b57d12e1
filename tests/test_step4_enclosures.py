"""``auto``'s step 4 in two phases: a point within the budget, else a one-expansion enclosure.

:func:`repro.confidence.dissociation.routing_intervals` first runs the
bound solver at ``bounds_budget`` in a point-only mode that ends at the
first base case whose bounds do not meet; a DNF it does not close gets
the enclosure at :data:`~repro.confidence.dissociation.OPEN_BOUND_BUDGET`
expansions, which sizes and clips its Karp–Luby run.  Pinned here, over
the coded-solver and read-once-floor corpora and both benchmark
workloads' DNF shapes:

* the route is "the solve at the budget is a point", and a point is that
  solve's interval bit for bit (at ``DEFAULT_BOUND_BUDGET`` and two
  smaller budgets that leave most corpus DNFs open);
* an open enclosure is the one-expansion solve's interval bit for bit,
  and contains the exact probability (Lemma 5.1's premise; float
  weights within the last-bit slack their fold orders leave);
* a failed attempt reaches exactly one open base case, its last;
* ``bounds_budget=0`` answers are those of enclosing every DNF at budget 0;
* reports are equal serial and pooled.
"""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest
from test_coded_solver import CORPUS, _case
from test_read_once_floor import FLOAT_SLACK, _drawn

import repro
from repro.confidence import probability_by_decomposition
from repro.confidence.dissociation import (
    DEFAULT_BOUND_BUDGET,
    OPEN_BOUND_BUDGET,
    _BoundSolver,
    _OpenBaseCase,
    dissociation_interval,
    dissociation_intervals,
    routing_intervals,
)
from repro.confidence.dnf import Dnf
from repro.confidence.exact import ClauseKernel
from repro.confidence.strategies import AutoStrategy
from repro.urel.conditions import Condition
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.parallel import ShardExecutor


def _sampled_conf_shape(seed: int, side: int = 12):
    """``sampled_conf``'s lineage: a 5-regular bipartite monotone 2-DNF, float weights."""
    rng = random.Random(seed)
    w = VariableTable()
    for half in "xy":
        for i in range(side):
            p = round(rng.uniform(0.2, 0.6), 3)
            w.add((half, i), {1: p, 0: 1 - p})
    relabel = list(range(side))
    rng.shuffle(relabel)
    clauses = [
        Condition({("x", i): 1, ("y", relabel[(i + d) % side]): 1})
        for i in range(side)
        for d in (0, 1, 2, 3, 5)
    ]
    return w, clauses


def _sampled_conf_dnf(seed: int) -> Dnf:
    w, clauses = _sampled_conf_shape(seed)
    return Dnf(clauses, w)


def _floor_corpus():
    """``test_read_once_floor``'s fixed drawn corpus, as (W, clauses) pairs."""
    rng = random.Random(44)
    for case in range(40):
        kind = ("fraction", "float", "mixed")[case % 3]
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(2, 6))]
        specs = [
            [(rng.randrange(6), rng.randrange(5)) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(2, 9))
        ]
        yield f"floor/{case}", _drawn(kind, sizes, specs, case)


CASES = {
    **{f"coded/{name}": lambda name=name: _case(name) for name in sorted(CORPUS)},
    **{name: lambda case=case: case for name, case in _floor_corpus()},
    **{f"sampled_conf/{seed}": lambda seed=seed: _sampled_conf_shape(seed) for seed in (11, 12)},
}


def _fresh(name: str) -> Dnf:
    w, clauses = CASES[name]()
    return Dnf(clauses, w)


def _same(a, b) -> bool:
    """Equal bounds in value and type."""
    return (repr(a.lower), repr(a.upper)) == (repr(b.lower), repr(b.upper))


# The default budget closes every corpus DNF but the ``sampled_conf`` ones;
# the smaller budgets leave most of them open.
BUDGETS = (0, 4, DEFAULT_BOUND_BUDGET)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_routes_and_intervals_are_those_of_the_two_solves(name, budget):
    """(a) point iff the solve at the budget is one, bit for bit; (b) open ⇒ sound."""
    auto = AutoStrategy(max_exact_size=0, bounds_budget=budget)
    dnf = _fresh(name)
    if auto._settled(dnf):
        return
    [(method, interval)] = auto._routes([dnf])
    full = dissociation_interval(_fresh(name), budget)
    assert method == ("dissociation-bounds" if full.is_exact else "karp-luby")
    if full.is_exact:
        assert _same(interval, full)
    else:
        opened = dissociation_interval(_fresh(name), min(OPEN_BOUND_BUDGET, budget))
        assert _same(interval, opened)
        exact = probability_by_decomposition(_fresh(name))
        # Float weights fold in other orders here than there: last-bit slack.
        slack = 0 if isinstance(exact, Fraction) else FLOAT_SLACK
        assert interval.lower - slack <= exact <= interval.upper + slack


def _attempt_base_cases(dnf: Dnf, budget: int) -> tuple[list[bool], bool]:
    """Point-ness of every base case a point-only attempt reaches, and whether it closed."""
    points: list[bool] = []
    inner = _BoundSolver._component_bounds

    def counting(self, ids):
        lower, upper = inner(self, ids)
        points.append(lower == upper)
        return lower, upper

    kernel = ClauseKernel(dnf)
    with mock.patch.object(_BoundSolver, "_component_bounds", counting):
        try:
            _BoundSolver(kernel, budget, True).solve(kernel.clauses, kernel.key)
        except _OpenBaseCase:
            return points, False
    return points, True


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_a_failed_attempt_stops_at_its_first_open_base_case(name, budget):
    """(c) no pairwise work past the first base case whose bounds do not meet."""
    dnf = _fresh(name)
    if dnf.is_empty or dnf.is_trivially_true:
        return
    points, closed = _attempt_base_cases(dnf, budget)
    assert all(points) if closed else points.count(False) == 1 and not points[-1]
    assert closed == dissociation_interval(_fresh(name), budget).is_exact


def test_sampled_conf_routing_reaches_three_base_cases():
    """The whole step 4 of an open ``sampled_conf`` DNF: one open base case, then two.

    The attempt ends at its first base case; one expansion of a binary
    variable leaves two.  The solve at the default budget, which spends
    as many expansions as the attempt, reaches four.
    """
    calls = []
    inner = _BoundSolver._component_bounds

    def counting(self, ids):
        calls.append(self.budget)
        return inner(self, ids)

    with mock.patch.object(_BoundSolver, "_component_bounds", counting):
        [interval] = routing_intervals([_sampled_conf_dnf(11)])
        assert not interval.is_exact and len(calls) == 3
        calls.clear()
        dissociation_interval(_sampled_conf_dnf(11), DEFAULT_BOUND_BUDGET)
        assert len(calls) == 4


def test_a_memoised_default_interval_does_not_move_the_route():
    """The route reads its own memo key: a budget interval known first changes nothing."""
    for seed in (11, 12):
        cold = routing_intervals([_sampled_conf_dnf(seed)])
        warm_dnf = _sampled_conf_dnf(seed)
        full = dissociation_interval(warm_dnf, DEFAULT_BOUND_BUDGET)
        assert not full.is_exact
        assert _same(routing_intervals([warm_dnf])[0], cold[0])
        assert warm_dnf._bounds[DEFAULT_BOUND_BUDGET] is full


def _database(names) -> UDatabase:
    """One relation ``H(T)`` whose tuple ``t`` has the lineage of case ``names[t]``."""
    w = VariableTable()
    rows = []
    for t, name in enumerate(names):
        case_w, clauses = CASES[name]()
        for var in sorted({var for clause in clauses for var in clause.variables}, key=repr):
            w.add((t, var), {v: case_w.prob(var, v) for v in case_w.domain(var)})
        for clause in clauses:
            rows.append((Condition({(t, var): value for var, value in clause.items()}), (t,)))
    udb = UDatabase(w=w)
    udb.set_relation("H", URelation.from_rows(("T",), rows))
    return udb


SESSION_CASES = (
    "sampled_conf/11",
    "coded/float/dense-few-vars/0",
    "coded/fraction/bipartite/1",
    "coded/mixed/multi-valued/2",
    "coded/float/shared-hub/0",
)


@pytest.mark.parametrize("bounds_budget", [0, DEFAULT_BOUND_BUDGET])
def test_sessions_answer_as_if_every_dnf_were_enclosed_at_the_budget(bounds_budget):
    """(a)/(d) routes as enclosing at the budget; at budget 0 every field too."""
    strategy = AutoStrategy(0.3, 0.2, max_exact_size=0, bounds_budget=bounds_budget)

    def answers():
        with repro.connect(_database(SESSION_CASES), strategy=strategy, rng=5) as session:
            return session.confidence_all("H")

    reports = answers()
    with mock.patch("repro.confidence.strategies.routing_intervals", dissociation_intervals):
        enclosed = answers()
    assert [r.method for r in reports.values()] == [r.method for r in enclosed.values()]
    assert "karp-luby" in {r.method for r in reports.values()}
    if bounds_budget <= OPEN_BOUND_BUDGET:
        assert reports == enclosed


def test_reports_are_equal_serial_and_pooled():
    """(e) the two-phase batch is one cut list: one answer at every worker count."""
    answers = []
    for workers in (None, ShardExecutor(2, min_shard_items=1)):
        strategy = AutoStrategy(0.3, 0.2, max_exact_size=0)
        with repro.connect(
            _database(SESSION_CASES), strategy=strategy, rng=5, workers=workers
        ) as session:
            answers.append(session.confidence_all("H"))
        if workers is not None:
            workers.close()
    assert answers[0] == answers[1]
    methods = [report.method for report in answers[0].values()]
    assert {"karp-luby", "dissociation-bounds"} <= set(methods)


def test_the_open_memo_key_is_never_a_budget():
    """A route memo entry is keyed apart from every budget's interval."""
    dnf = _sampled_conf_dnf(12)
    [interval] = routing_intervals([dnf])
    assert dnf._bounds == {("route", DEFAULT_BOUND_BUDGET): interval}
