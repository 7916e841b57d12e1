"""The Theorem 6.7 driver's run scope: what l cannot change is done once per run.

"Double l and restart query evaluation" restarts the *sampling*.  The
:class:`~repro.confidence.dissociation.EnclosureMemo` the driver carries
across its doublings also interns every σ̂ candidate's disjunction by its
ordered members, so the member weights and the trial encoding built on
it serve every doubling, and it keeps each σ̂ decision that drew no trial
(exact, or certified by bounds).  Pinned here:

* reports equal, field for field, those of a driver whose per-l
  evaluators each run in their own fresh ``run_scope()`` and draw the
  same spawned streams — narrow and wide selections, pruning off and
  on, serial and two-worker executors;
* the work of one ``guarantee_select``-shaped run (26 candidates, 7
  doublings): 2 encodings, 38 approximators, 14 ε_ψ folds and 120 member
  weights, where rebuilding everything per doubling costs 182, 182, 182
  and 1176;
* nothing of it outlives the run.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

import repro
from repro.algebra.expressions import col, lit
from repro.algebra.operators import ApproxSelect, walk
from repro.confidence import Dnf, batch
from repro.confidence.bounds import rounds_for
from repro.confidence.dissociation import DEFAULT_BOUND_BUDGET, BoundInterval, EnclosureMemo
from repro.core import approximator
from repro.core.approx_select import ApproxQueryEvaluator
from repro.core.driver import evaluate_with_guarantee
from repro.generators.coins import pick_coin_query, toss_query
from repro.urel.conditions import Condition
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.parallel import ShardExecutor
from repro.util.rng import ensure_rng, spawn_rng
from repro.util.scope import run_scope

QUERY = "aselect[P > 0.5 ; conf(A) as P](G)"
DELTA, EPS0 = 0.1, 0.05
OFFSETS = (0, 1, 2, 3, 5)
GRID = (Fraction(2, 10), Fraction(3, 10), Fraction(8, 10), Fraction(9, 10))
BOUNDS_ON = 1  # pruning on: the groups are certified, the contested tuples sample


def selection(n_groups: int, n_contested: int, side: int = 12, seed: int = 0) -> UDatabase:
    """``guarantee_select``'s relation G(A) in the engine's own terms.

    Group tuple k holds two of the three values of its own variable: its
    clauses are mutually exclusive, so its enclosure is a point, at a
    confidence on a grid clear of τ = 0.5.  A contested tuple is a
    circulant bipartite 2-DNF (|F| = 5·side) conjoined with two private
    gates that put its confidence at 0.75.  At bounds budget
    ``BOUNDS_ON`` the solver spends its one expansion on a gate, and the
    base case finds every clause sharing the other: its read-once floor
    holds one clause, the lower bound stays below τ, and deciding
    ``P > 0.5`` takes sampling.  Variables are named by ints: their
    hashes, and with them every member order and every trial drawn, are
    the same under any ``PYTHONHASHSEED``.
    """
    rng = random.Random(seed)
    w = VariableTable()
    rows = []
    for k in range(n_groups):
        p = GRID[k % len(GRID)]
        first = Fraction(rng.randint(1, int(p * 100) - 1), 100)
        w.add((0, k), {0: first, 1: p - first, 2: 1 - p})
        rows += [(Condition({(0, k): value}), (k,)) for value in (0, 1)]
    for c in range(n_contested):
        tag = 1000 + c
        px = [rng.randint(20, 60) / 100 for _ in range(side)]
        py = [rng.randint(20, 60) / 100 for _ in range(side)]
        for i in range(side):
            w.add((tag, 0, i), {1: px[i], 0: 1 - px[i]})
            w.add((tag, 1, i), {1: py[i], 0: 1 - py[i]})
        relabel = list(range(side))
        rng.shuffle(relabel)
        edges = [(i, relabel[(i + d) % side]) for i in range(side) for d in OFFSETS]
        # P(F) = 1 − Σ_X Pr[X]·∏_j (1 − q_j·[y_j has a neighbour in X]).
        none = 0.0
        for mask in range(1 << side):
            pr = 1.0
            for i, p in enumerate(px):
                pr *= p if mask >> i & 1 else 1 - p
            for j, q in enumerate(py):
                if any(mask >> i & 1 for i, jj in edges if jj == j):
                    pr *= 1 - q
            none += pr
        p_gate = (0.75 / (1 - none)) ** 0.5
        for gate in (2, 3):
            w.add((tag, gate), {1: p_gate, 0: 1 - p_gate})
        rows += [
            (Condition({(tag, 0, i): 1, (tag, 1, j): 1, (tag, 2): 1, (tag, 3): 1}), (tag,))
            for i, j in edges
        ]
    db = UDatabase(w=w)
    db.set_relation("G", URelation.from_rows(("A",), rows))
    return db


NARROW = (3, 1)  # 4 candidates: the sequential σ̂ path
WIDE = (19, 2)  # 21 candidates: the sharded σ̂ path
RNG = 4  # six or more doublings on every shape and budget below


def reference_driver(node, db, rng, executor, bounds_budget):
    """``evaluate_with_guarantee``'s loop with nothing carried across doublings.

    Every per-l evaluator runs in its own fresh ``run_scope()`` — it
    rebuilds its disjunctions, encodings, approximators and decisions —
    from the same spawned streams the driver uses.
    """
    generator = ensure_rng(rng)
    n_sigma = sum(1 for q in walk(node) if isinstance(q, ApproxSelect)) or 1
    max_rounds = 2 * rounds_for(EPS0, DELTA / (2.0 * n_sigma))
    rounds, history, evaluations = 1, [], 0
    while True:
        evaluator = ApproxQueryEvaluator(db, EPS0, rounds=rounds, rng=spawn_rng(generator))
        with run_scope(executor=executor, bounds_budget=bounds_budget):
            annotated = evaluator.evaluate(node)
        evaluations += 1
        worst = annotated.worst_bound(include_singular=False)
        history.append((rounds, worst))
        if worst <= DELTA or rounds >= max_rounds:
            return (
                sorted(map(repr, annotated.relation.rows)),
                rounds,
                evaluations,
                worst <= DELTA,
                history,
                evaluator.decision_log,
                annotated.all_bounds(),
                frozenset(annotated.singular),
                sum(1 for r in evaluator.decision_log if r.decision.certified_by_bounds),
            )
        rounds = min(rounds * 2, max_rounds)


def report_fields(report):
    return (
        sorted(map(repr, report.relation.rows)),
        report.rounds,
        report.evaluations,
        report.achieved,
        report.history,
        report.decisions,  # estimates, total_trials, error bounds, certified flags
        report.tuple_bounds,
        report.singular_rows,
        report.bounds_certified,
    )


@pytest.fixture(scope="module")
def two_workers():
    executor = ShardExecutor(2)
    yield executor
    executor.close()


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("bounds_budget", [0, BOUNDS_ON])
@pytest.mark.parametrize("shape", [NARROW, WIDE], ids=["narrow", "wide"])
def test_reports_equal_a_driver_without_run_scope(shape, bounds_budget, workers, two_workers):
    udb = selection(*shape)
    node = repro.parse_query(QUERY)
    executor = two_workers if workers else None
    want = reference_driver(node, udb, RNG, executor, bounds_budget)
    with run_scope(executor=executor):
        library = evaluate_with_guarantee(
            node, udb, delta=DELTA, eps0=EPS0, rng=RNG, bounds_budget=bounds_budget
        )
    session = repro.connect(udb, rng=3, workers=executor)
    try:
        served = session.evaluate_with_guarantee(
            QUERY, delta=DELTA, eps0=EPS0, rng=RNG, bounds_budget=bounds_budget
        )
    finally:
        session.close()
    assert report_fields(library) == report_fields(served) == want
    assert library.evaluations >= 6
    sampled = [r for r in library.decisions if r.decision.total_trials]
    assert len(sampled) == (sum(shape) if not bounds_budget else shape[1])


@pytest.fixture
def work(monkeypatch):
    """Counts encodings, approximators, ε_ψ folds and member weights."""
    counts: Counter = Counter()

    def spy(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(batch._EncodedDnf, "__init__", "encodings")
    spy(approximator.PredicateApproximator, "__init__", "approximators")
    spy(approximator.PredicateApproximator, "_epsilon_psi", "eps_psi")
    spy(VariableTable, "weight", "weights")
    return counts


def test_guarantee_select_work_per_run(work):
    """24 point-enclosed groups and 2 contested 60-clause DNFs, 7 doublings.

    Per doubling with nothing carried over: 26 encodings, approximators
    and ε_ψ folds and 168 member weights (182 / 1176 per run).  With the
    run scope the 24 certified decisions are made once, the 2 contested
    disjunctions are encoded and weighed once, and only their 7 × 2
    decisions sample.  A second run on the same session pays the same:
    nothing outlives a run.
    """
    with repro.connect(selection(24, 2), rng=1, workers=1) as db:  # counted in-process
        for rng in (0, 1):
            work.clear()
            report = db.evaluate_with_guarantee(
                QUERY, delta=DELTA, eps0=EPS0, rng=rng, bounds_budget=BOUNDS_ON
            )
            # An evaluation at l draws l·|F| trials per sampled value: the
            # run's trials are the final evaluation's scaled by Σl / l.
            rounds = [l for l, _ in report.history]
            trials = sum(r.decision.total_trials for r in report.decisions)
            assert (report.evaluations, report.bounds_certified) == (7, 24)
            assert trials * sum(rounds) // report.rounds == 15240
            assert work == {"encodings": 2, "approximators": 38, "eps_psi": 14, "weights": 120}
        kept = db._cache._data
        assert kept and all(isinstance(entry.value, BoundInterval) for entry in kept.values())


def test_run_scope_interns_by_member_set():
    """A sampler indexes F in an order of the data: a reordered DNF is the same one."""
    db = selection(0, 1, side=4)
    members = tuple(cond for cond, _values in sorted(db.relation("G").rows, key=repr))
    memo = EnclosureMemo()
    first = memo.intern(Dnf(members, db.w))
    assert memo.intern(Dnf(members, db.w.copy())) is first
    assert memo.intern(Dnf(members[::-1], db.w)) is first


def coin_queries():
    return {
        # repair-key below the σ̂: every doubling mints the coin and toss
        # variables anew in its own copy of W, while the interned DNFs
        # were built over the first doubling's copy.
        "repair-key": pick_coin_query()
        .join(toss_query(2))
        .project(["Face"])
        .approx_select(col("P1") > lit(0.3), groups=[["Face"]])
        .q,
        # Example 2.2's posterior test: two values per candidate, one of
        # them the shared empty-group disjunction.
        "posterior": repro.parse_query(
            "aselect[P1 / P2 <= 0.5 ; conf(CoinType) as P1, conf() as P2](T)"
        ),
    }


@pytest.mark.parametrize("bounds_budget", [0, DEFAULT_BOUND_BUDGET])
@pytest.mark.parametrize("name", ["repair-key", "posterior"])
def test_coin_reports_equal_a_driver_without_run_scope(name, bounds_budget, coin_session_after_T):
    udb = coin_session_after_T.db
    node = coin_queries()[name]
    want = reference_driver(node, udb, RNG, None, bounds_budget)
    got = evaluate_with_guarantee(
        node, udb, delta=DELTA, eps0=EPS0, rng=RNG, bounds_budget=bounds_budget
    )
    assert report_fields(got) == want
    trials = sum(r.decision.total_trials for r in got.decisions)
    assert (got.evaluations > 3 and trials > 0) if not bounds_budget else got.bounds_certified
