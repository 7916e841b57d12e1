"""The enclosure seam: each distinct (DNF, budget) is solved once per session.

Theorem 6.7's "double l and restart query evaluation" restarts the
sampling, not the dissociation enclosures — those are a pure function of
(clause set, W, budget).  σ̂ asks ``UEvaluator.enclosures`` once for all
its candidates, the driver carries one run-scoped memo across its
doublings, and a session answers from its cache, shared with top-k and
``explain``.  Pinned here: how often the solver runs, that a memoised
interval changes no report field, the cache accounting, and the one
case where the content key would be unsound (variables minted outside
the session's W).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import repro
from repro.algebra.builder import literal
from repro.algebra.expressions import col, lit
from repro.confidence import Dnf, dissociation, dissociation_interval, dissociation_intervals
from repro.confidence import lineage as dnf_lineage
from repro.core.approx_select import ApproxQueryEvaluator
from repro.core.approximator import PredicateApproximator
from repro.core.driver import evaluate_with_guarantee
from repro.core.error_bounds import AnnotatedRelation
from repro.core.topk import race_topk
from repro.server.budget import CacheBudget
from repro.urel.conditions import TOP, Condition
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.parallel import SERIAL_EXECUTOR

QUERY = "aselect[P > 0.6 ; conf(A) as P](G)"
DELTA, EPS0 = 0.1, 0.1
BUDGET = 2  # too small to crack the contested DNF: its box straddles 0.6
NARROW, WIDE = 5, 20  # + 1 contested: the sequential and the sharded σ̂ path


def _instance(n_groups: int) -> UDatabase:
    """``guarantee_select`` in small: G(A) holds ``n_groups`` repair-key style
    tuples (two alternatives of one variable — a point enclosure) and one
    contested circulant bipartite 2-DNF with P = 0.863 enclosed by
    [0.375, 0.954] at ``BUDGET``, so ``P > 0.6`` takes sampling.

    Variables are named by ints: their hashes, and with them the member
    order of every DNF and every trial drawn below, are the same under
    any ``PYTHONHASHSEED``."""
    groups, xs, ys, side = 0, 1, 2, 4
    w = VariableTable()
    rows = []
    for k in range(n_groups):
        tenths = {0: 1, 1: k % 7 + 1, 2: 8 - k % 7}
        w.add((groups, k), {value: Fraction(n, 10) for value, n in tenths.items()})
        rows += [(Condition({(groups, k): value}), (k,)) for value in (0, 1)]
    for i in range(side):
        w.add((xs, i), {1: Fraction(1, 2), 0: Fraction(1, 2)})
        w.add((ys, i), {1: Fraction(1, 2), 0: Fraction(1, 2)})
    rows += [
        (Condition({(xs, i): 1, (ys, (i + d) % side): 1}), (100,))
        for i in range(side)
        for d in (0, 1, 2)
    ]
    db = UDatabase(w=w)
    db.set_relation("G", URelation.from_rows(("A",), rows))
    return db


def _run(db, rng=5, **kwargs):
    return db.evaluate_with_guarantee(
        QUERY, delta=DELTA, eps0=EPS0, rng=rng, bounds_budget=BUDGET, **kwargs
    )


@pytest.fixture
def solved(monkeypatch):
    """Every (clause set, budget) the in-process solver is run on."""
    calls: list[tuple[frozenset, int]] = []
    compute = dissociation._compute_interval

    def spy(dnf, budget):
        calls.append((frozenset(dnf.members), budget))
        return compute(dnf, budget)

    monkeypatch.setattr(dissociation, "_compute_interval", spy)
    return calls


def _driver_fields(report):
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


class TestSolvedOnce:
    def test_driver_run_solves_each_distinct_dnf_once(self, solved):
        with repro.connect(_instance(NARROW), rng=3) as db:
            report = _run(db)
            assert report.evaluations >= 3 and report.achieved
            assert any(d.decision.total_trials for d in report.decisions)
            assert len(solved) == len(set(solved)) == NARROW + 1
            assert report.bounds_computed == NARROW + 1
            # Another seed on the same session: same boxes, nothing to solve.
            again = _run(db, rng=6)
            assert again.bounds_computed == 0 and len(solved) == NARROW + 1
            assert again.bounds_certified == report.bounds_certified == NARROW

    def test_library_driver_carries_a_run_scoped_memo(self, solved):
        udb = _instance(NARROW)
        node = repro.parse_query(QUERY)
        for _ in range(2):  # nothing outlives a library run
            del solved[:]
            report = evaluate_with_guarantee(
                node, udb, delta=DELTA, eps0=EPS0, rng=5, bounds_budget=BUDGET
            )
            assert report.evaluations >= 3
            assert len(solved) == report.bounds_computed == NARROW + 1

    def test_topk_and_explain_share_the_session_memo(self, solved):
        with repro.connect(_instance(NARROW), rng=3) as db:
            db.topk("G", 2, bounds_budget=BUDGET)
            assert len(solved) == NARROW + 1
            assert _run(db).bounds_computed == 0
            assert len(solved) == NARROW + 1
        with repro.connect(_instance(NARROW), rng=3) as db:
            db.explain_topk("G", 2)  # encloses at the default budget
            del solved[:]
            db.topk("G", 2)
            assert solved == []

    def test_standalone_sigma_hat_asks_once_per_selection(self, solved):
        evaluator = ApproxQueryEvaluator(
            _instance(NARROW), EPS0, rounds=4, rng=1, bounds_budget=BUDGET
        )
        evaluator.evaluate(repro.parse_query(QUERY))
        assert len(solved) == len(set(solved)) == NARROW + 1


class TestReportsUnchanged:
    @pytest.mark.parametrize("n_groups, workers", [(NARROW, None), (WIDE, None), (WIDE, 2)])
    def test_driver_report_cold_warm_library(self, n_groups, workers):
        udb = _instance(n_groups)
        with repro.connect(udb, rng=3, workers=workers) as db:
            cold = _run(db)
            warm = _run(db)
            backend = db.backend
        library = evaluate_with_guarantee(
            repro.parse_query(QUERY),
            udb,
            delta=DELTA,
            eps0=EPS0,
            rng=5,
            backend=backend,
            bounds_budget=BUDGET,
        )
        assert cold.bounds_computed == library.bounds_computed == n_groups + 1
        assert warm.bounds_computed == 0
        assert _driver_fields(cold) == _driver_fields(warm) == _driver_fields(library)

    def test_topk_report_cold_warm_library(self):
        udb = _instance(NARROW)
        with repro.connect(udb, rng=3) as db:
            cold = db.topk("G", 2, eps=0.3, delta=0.2, bounds_budget=BUDGET)
            assert cold.total_trials > 0
        with repro.connect(udb, rng=3) as db:
            _run(db)  # an explicit rng: the session stream is untouched
            warm = db.topk("G", 2, eps=0.3, delta=0.2, bounds_budget=BUDGET)
            result = db.query("G")
            rows, dnfs = dnf_lineage(result.relation, udb.w, result.rows)
            library = race_topk(
                rows, dnfs, 2, 0.3, 0.2, rng=3, backend=db.backend, bounds_budget=BUDGET
            )
        assert cold == warm == library


class TestSessionCache:
    def test_entries_are_accounted_evictable_and_recomputed_identically(self):
        with repro.connect(_instance(NARROW), rng=3) as db:
            before = _run(db)
            stats = db.cache_stats
            assert stats["entries"] == NARROW + 1 and stats["approx_bytes"] > 0
            budget = CacheBudget(0)  # evicts everything that is not volatile
            budget.register(db._cache)
            assert db.cache_stats["entries"] == 0 and budget.evictions == NARROW + 1
            budget.unregister(db._cache)
            after = _run(db)
            assert after.bounds_computed == NARROW + 1
            assert _driver_fields(after) == _driver_fields(before)
            db.clear_cache()
            assert _run(db).bounds_computed == NARROW + 1

    def test_disabled_cache_still_runs_once_per_run(self):
        db = repro.ProbDB(_instance(NARROW), rng=3, cache_size=0)
        assert _run(db).bounds_computed == NARROW + 1
        assert _run(db).bounds_computed == NARROW + 1
        db.close()

    def test_copy_only_variables_never_enter_the_session_cache(self):
        """repair-key below σ̂ runs on the driver's private copy: its variables
        are not in the session's W and follow relation data ``assign`` can
        replace under an unchanged ``w.version`` — a session-cached box for
        them would go stale."""
        query = "aselect[P > 0.5 ; conf(V) as P](project[V](repair-key[K @ W](Base)))"

        def base(weight_a):
            rows = [[k, v, w] for k in (1, 2) for v, w in (("a", weight_a), ("b", 10 - weight_a))]
            return literal(["K", "V", "W"], rows)

        def kept(report):
            return sorted(values[0] for _cond, values in report.relation.rows)

        def run(db):
            return db.evaluate_with_guarantee(query, delta=DELTA, eps0=EPS0, rng=1)

        with repro.connect({}, rng=3) as db:
            db.assign("Base", base(8))  # conf(a) = 1 − 0.2² = 0.96, conf(b) = 0.36
            version = db.w.version
            first = run(db)
            assert kept(first) == ["a"] and first.bounds_computed == 2
            assert not any(key[0] == "bounds" for key in db._cache._data)
            db.assign("Base", base(2))  # the same variables, other weights
            assert db.w.version == version
            second = run(db)
            assert kept(second) == ["b"] and second.bounds_computed == 2
            assert [d.decision.estimates for d in second.decisions] == [{"P": 0.36}, {"P": 0.96}]


class TestSolverLayer:
    def test_batch_sends_distinct_misses_only_and_writes_back(self):
        class Recording:
            sent: list = []

            def map_items(self, fn, items, *args):
                self.sent.append(list(items))
                return SERIAL_EXECUTOR.map_items(fn, items, *args)

        udb = _instance(3)
        relation = udb.relation("G")
        rows = relation.possible_tuples().sorted_rows()
        _, dnfs = dnf_lineage(relation, udb.w, rows)
        _, twins = dnf_lineage(relation, udb.w, rows)
        known = dissociation_interval(dnfs[0], BUDGET)  # e.g. by auto's routing
        executor = Recording()
        intervals = dissociation_intervals(dnfs + twins, BUDGET, executor=executor)
        # One object per distinct clause set that holds no interval yet: not
        # dnfs[0] (known), its twin instead.
        assert [[id(d) for d in batch] for batch in executor.sent] == [
            [id(d) for d in dnfs[1:] + twins[:1]]
        ]
        assert intervals[0] is known and intervals[: len(dnfs)] == intervals[len(dnfs) :]
        assert all(dnf._bounds[BUDGET] == iv for dnf, iv in zip(dnfs + twins, intervals))
        assert dissociation_intervals(dnfs + twins, BUDGET, executor=executor) == intervals
        assert len(executor.sent) == 1  # nothing left to send

    def test_equal_clauses_over_different_w_tables_stay_apart(self):
        def single(p):
            w = VariableTable()
            w.add("x", {1: p, 0: 1 - p})
            w.add("y", {1: p, 0: 1 - p})
            return Dnf([Condition({"x": 1}), Condition({"y": 1})], w)

        low, high = dissociation_intervals([single(Fraction(1, 4)), single(Fraction(3, 4))])
        assert low.upper < high.lower

    def test_sort_keys_are_solver_local(self):
        # pipeline_conf holds hundreds of thousands of conditions under a
        # 5 % RSS bound: the per-run key memo must not become a slot.
        assert Condition.__slots__ == ("_map", "_hash")


class TestApproximatorIntervals:
    def test_given_intervals_nothing_is_solved_and_nothing_changes(self, solved):
        udb = _instance(1)
        relation = udb.relation("G")
        dnf = Dnf(relation.conditions_of((100,)), udb.w)
        interval = dissociation_interval(Dnf(dnf.members, udb.w), BUDGET)
        # Non-linear with a repeated variable: the duplication trick renames p.
        for predicate in (col("p") > lit(0.6), col("p") * col("p") > lit(0.36)):
            del solved[:]
            standalone = PredicateApproximator(
                predicate, {"p": Dnf(dnf.members, udb.w)}, EPS0, rng=4, bounds_budget=BUDGET
            ).run_rounds(8)
            assert len(solved) == 1
            handed = PredicateApproximator(
                predicate,
                {"p": Dnf(dnf.members, udb.w)},
                EPS0,
                rng=4,
                bounds_budget=BUDGET,
                intervals={"p": interval},
            ).run_rounds(8)
            assert len(solved) == 1
            assert handed == standalone and handed.total_trials > 0


class TestProvenanceIndex:
    def test_index_equals_the_per_candidate_scan(self):
        """Unreliable input: each candidate sums the μ of the child rows matching
        any of its group keys, once each, in ``_iter_all`` order."""
        node = repro.parse_query("aselect[P1 >= 0 ; conf(A) as P1, conf(B) as P2](R)")
        cond = Condition({"v": 1})
        present = [(TOP, (a, b)) for a in range(3) for b in range(3)] + [(cond, (0, 0))]
        phantom = [(TOP, (3, 0)), (TOP, (0, 3))]
        generator = random.Random(0)
        child = AnnotatedRelation(
            URelation(("A", "B"), frozenset(present)),
            False,
            {row: generator.random() / 7 for row in present[::2]},
            URelation(("A", "B"), frozenset(phantom)),
            {row: generator.random() / 7 for row in phantom},
            {present[1], phantom[0]},
        )
        w = VariableTable()
        w.add("v", {1: Fraction(1, 2), 0: Fraction(1, 2)})
        evaluator = ApproxQueryEvaluator(UDatabase(w=w), EPS0, rounds=1)
        indexed = evaluator._provenance_bounds(node, child)
        for a in range(5):
            for b in range(5):
                total, tainted = 0.0, False
                for row, bound, singular, _present in evaluator._iter_all(child):
                    if row[1][0] == a or row[1][1] == b:
                        total += bound
                        tainted = tainted or singular
                assert indexed({"A": a, "B": b}) == (min(1.0, total), tainted)

    def test_reliable_input_is_not_scanned(self):
        node = repro.parse_query(QUERY)
        child = AnnotatedRelation(_instance(2).relation("G"), False)
        evaluator = ApproxQueryEvaluator(_instance(2), EPS0, rounds=1)
        evaluator._iter_all = None  # any scan would raise
        assert evaluator._provenance_bounds(node, child)({"A": 0}) == (0.0, False)
