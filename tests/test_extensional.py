"""Step 0 of the conf seam: safe plans over tuple-independent relations.

A hierarchical self-join-free plan whose relations are tuple-independent
is answered extensionally (``repro.confidence.extensional``) — by the
``auto`` strategy object only, from every entry point that has the plan
in hand — and must equal the per-DNF path exactly.  Everything else
falls through to that path unchanged.  Three parts: the differential
suite (lifted == exact enumeration == possible worlds), the screens
(each reason not to lift, still right), and the contract of the route
(order of the screens, no DNF, one memo entry, no RNG, staleness, wire).
The wide randomized sweep is ``slow``.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from conftest import ENGINES, on_engine

import repro
from repro.algebra.operators import BaseRel, walk
from repro.algebra.parser import parse_query
from repro.algebra.relations import Relation
from repro.confidence import Dnf, lift
from repro.confidence.strategies import AutoStrategy, ConfidenceStrategy
from repro.generators.coins import coin_database
from repro.generators.tpdb import add_tuple_independent
from repro.urel import UDatabase, UEvaluator, enumerate_worlds
from repro.urel.conditions import Condition
from repro.urel.urelation import URelation
from repro.worlds import evaluate_worlds

SCHEMAS = {"R": ("A", "B"), "S": ("B", "C"), "T": ("C", "D"), "U": ("D", "E")}
_WEIGHTS = (1, Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 4), Fraction(1, 7))

# plan -> does it lift (hierarchical, self-join free, plain columns)?
PLANS = {
    "R": True,
    "project[A](R)": True,
    "join(R, S)": True,
    "project[B](join(R, S))": True,
    "project[](join(R, S))": True,
    "project[B](select[A < 2](join(R, S)))": True,
    "project[B](join(select[A < 2](R), select[C >= 1 and B != 0](S)))": True,
    "rename[B -> K](project[B](join(R, S)))": True,
    "project[A](join(R, rename[B -> X, C -> B](S)))": True,  # R.B = S.C through a rename
    "project[B](join(R, S, T))": True,
    "project[A, D](product(project[A](R), project[D](T)))": True,
    "project[A](join(R, S, T))": False,
    "project[](join(R, S, T))": False,
    "project[B, C](join(R, S, T, U))": True,
    "project[B](join(R, S, T, U))": False,
}


def ti_database(
    seed: int, n_relations: int = 3, floats: bool = False, n_rows: tuple[int, int] = (2, 4)
) -> UDatabase:
    """2–4 tuple-independent relations over {0,1,2}², certain rows included."""
    rng = random.Random(seed)
    db = UDatabase()
    grid = [(a, b) for a in range(3) for b in range(3)]
    for name in list(SCHEMAS)[:n_relations]:
        rows = []
        for values in rng.sample(grid, rng.randint(*n_rows)):
            weight = rng.choice(_WEIGHTS)
            if floats and weight != 1:
                weight = round(rng.uniform(0.05, 0.95), 3)
            rows.append((values, weight))
        add_tuple_independent(db, name, SCHEMAS[name], rows)
    return db


def plans_for(db: UDatabase):
    for text, lifts in PLANS.items():
        names = {q.name for q in walk(parse_query(text)) if isinstance(q, BaseRel)}
        if names <= db.relation_names:
            yield text, lifts


def values(reports) -> dict:
    return {row: report.value for row, report in reports.items()}


def methods(reports) -> set:
    return {report.method for report in reports.values()}


def worlds_truth(db: UDatabase, text: str) -> dict:
    truth: dict = {}
    for relation, weight in evaluate_worlds(parse_query(text), enumerate_worlds(db)):
        for row in relation.rows:
            truth[row] = truth.get(row, 0) + weight
    return truth


def assert_matches_enumeration(db: UDatabase, text: str, lifts: bool | None = None):
    """``auto`` on ``text`` equals exact enumeration: same keys, equal Fractions."""
    with repro.connect(db, rng=0) as session:
        got = session.confidence_all(text)
        truth = session.confidence_all(text, strategy="exact-enumeration")
    assert list(got) == list(truth) == sorted(truth, key=repr)
    assert values(got) == values(truth)
    assert all(isinstance(v, Fraction) for v in values(got).values())
    assert all(report.exact and report.samples == 0 for report in got.values())
    if got and lifts is not None:
        assert (methods(got) == {"extensional"}) == lifts, (text, methods(got))
    return got


def assert_floats_match_enumeration(db: UDatabase):
    """Every plan on float-weighted ``db``: same keys, 1e-12 relative."""
    with repro.connect(db) as session:
        for text, _lifts in plans_for(db):
            got = values(session.confidence_all(text))
            truth = values(session.confidence_all(text, strategy="exact-enumeration"))
            assert got.keys() == truth.keys()
            for row in truth:
                assert got[row] == pytest.approx(truth[row], rel=1e-12, abs=0), (text, row)


# --------------------------------------------------------------------------
# Differential: lifted == exact enumeration (== possible worlds)
# --------------------------------------------------------------------------


class TestDifferential:
    @pytest.mark.parametrize("seed", range(9))
    def test_auto_equals_exact_enumeration_as_fractions(self, seed):
        db = ti_database(seed, n_relations=2 + seed % 3)
        for text, lifts in plans_for(db):
            assert_matches_enumeration(db, text, lifts)

    def test_possible_worlds_ground_truth_on_the_smallest(self):
        db = ti_database(1, n_relations=2)
        assert len(db.w) <= 8
        with repro.connect(db) as session:
            for text, _lifts in plans_for(db):
                assert values(session.confidence_all(text)) == worlds_truth(db, text), text

    @pytest.mark.parametrize("seed", range(4))
    def test_float_weights_agree_to_1e_12(self, seed):
        assert_floats_match_enumeration(ti_database(seed, floats=True))

    # The second plan runs with a pushed selection copy under its join: the
    # in-query conf must still lift the plan as written (one memo entry for
    # both askers), and nothing the pass adds may reach a lifting walker.
    @pytest.mark.parametrize(
        "text", ["project[B](join(R, S))", "project[B](select[A < 2](join(R, S)))"]
    )
    def test_every_entry_point_gives_the_same_answers(self, text):
        db = ti_database(3, n_rows=(5, 7))
        with repro.connect(db, strategy="exact-enumeration") as reference:
            truth = values(reference.confidence_all(text))
        assert len(truth) >= 2
        with repro.connect(db) as session:
            reports = session.confidence_all(text)
            assert values(reports) == truth and methods(reports) == {"extensional"}
            report = next(iter(reports.values()))
            assert (report.strategy, report.exact, report.samples) == ("auto", True, 0)
            expected_rows = {row + (p,) for row, p in truth.items()}
            entries = session.cache_stats["entries"]
            assert {v for _, v in session.query(f"conf[P]({text})").relation.rows} == expected_rows
            assert session.cache_stats["entries"] == entries + 1  # the query; the plan hit
            assert {v for _, v in session.confidence(text).relation.rows} == expected_rows
            result = session.query(text)
            assert result.confidences() == reports
            fresh = session.query(text)
            for row in truth:
                assert fresh.confidence(row) == reports[row]
            absent = fresh.confidence((99,))
            assert absent.value == 0 and absent.exact
            top = session.topk(text, 2)
            ranked = sorted(truth, key=lambda row: (-truth[row], repr(row)))[:2]
            assert top.rows == tuple(ranked)
            assert [e.value for e in top.entries] == [truth[row] for row in ranked]
            assert {(e.source, e.exact, e.trials) for e in top.entries} == {("exact", True, 0)}
            assert result.topk(2) == top
            # the conf relation's own plan is conf(q): nothing to lift, same answers
            assert methods(session.confidence(text).confidences()) == {"exact-decomposition"}

    def test_plain_evaluator_lifts_under_an_auto_object(self):
        db = ti_database(3, n_rows=(5, 7))
        query = parse_query("conf[P](project[B](join(R, S)))")
        lifted = UEvaluator(db, strategy=AutoStrategy()).evaluate(query).relation
        assert lifted == UEvaluator(db).evaluate(query).relation
        assert UEvaluator(db).plan_confidences(query.child) is None  # exact decomposition


@pytest.mark.slow
@pytest.mark.parametrize("block", range(10))
def test_wide_randomized_sweep(block):
    """Hundreds of seeds × every plan (4-atom ones included), both weight types."""
    for seed in range(40 * block, 40 * (block + 1)):
        db = ti_database(1000 + seed, n_relations=2 + seed % 3)
        for text, lifts in plans_for(db):
            assert_matches_enumeration(db, text, lifts)
        assert_floats_match_enumeration(
            ti_database(1000 + seed, n_relations=2 + seed % 3, floats=True)
        )


# --------------------------------------------------------------------------
# The screens: every reason not to lift, and the answer is still right
# --------------------------------------------------------------------------


def _with_relation(db: UDatabase, name: str, columns, rows) -> UDatabase:
    db.set_relation(name, URelation.from_rows(columns, rows))
    return db


def _shared_variable_rows(db):
    """R's rows all under one 3-valued variable — what repair-key writes."""
    db.w.add("pick", {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)})
    rows = [(Condition({"pick": i}), (i, i % 2)) for i in range(3)]
    return _with_relation(db, "R", ("A", "B"), rows)


def _two_assignment_row(db):
    db.w.add("x", {0: Fraction(1, 2), 1: Fraction(1, 2)})
    db.w.add("y", {0: Fraction(1, 3), 1: Fraction(2, 3)})
    rows = [(Condition({"x": 1, "y": 1}), (0, 1)), (Condition(), (1, 1))]
    return _with_relation(db, "R", ("A", "B"), rows)


def _variable_in_two_relations(db):
    variable, value = next(a for _, a in db.relation("S").independent_rows() if a is not None)
    rows = [(Condition({variable: value}), (0, 1)), (Condition(), (2, 0))]
    return _with_relation(db, "R", ("A", "B"), rows)


def _tuple_under_two_rows(db):
    db.w.add("x", {0: Fraction(1, 2), 1: Fraction(1, 2)})
    db.w.add("y", {0: Fraction(1, 3), 1: Fraction(2, 3)})
    rows = [(Condition({"x": 1}), (0, 1)), (Condition({"y": 1}), (0, 1)), (Condition(), (1, 0))]
    return _with_relation(db, "R", ("A", "B"), rows)


# reason -> (what it does to R, the plans that must now fall back)
_JOINT = ("project[B](join(R, S))", "project[](join(R, S))")
DATA_SCREENS = {
    "variable shared by two rows": (_shared_variable_rows, ("R", *_JOINT)),
    "two-assignment condition": (_two_assignment_row, ("R", *_JOINT)),
    "variable used in two relations": (_variable_in_two_relations, _JOINT),
    "data tuple under two rows": (_tuple_under_two_rows, ("R", *_JOINT)),
}


def _complete_database() -> UDatabase:
    """Tuple-independent R, S plus complete C1, C2 (for diff / repair-key)."""
    db = ti_database(5, n_relations=2)
    for name, rows in (("C1", [(0, 1), (1, 2), (2, 3)]), ("C2", [(1, 2)])):
        relation = URelation.from_complete(Relation.from_rows(("B", "W"), rows))
        db.set_relation(name, relation, complete=True)
    return db


PLAN_SCREENS = [
    "project[B](join(R, rename[A -> C](R)))",  # self-join
    "project[A](join(R, S, T))",  # not hierarchical
    "project[B](union(R, rename[B -> A, C -> B](S)))",
    "project[B](join(R, diff(C1, C2)))",
    "project[B](join(R, repair-key[B @ W](C1)))",
    "project[B](join(R, conf[P](S)))",
    "project[B](join(R, poss(S)))",
    "project[A + B -> X](R)",  # arithmetic projection item
    "project[B](select[A < C](join(R, S)))",  # predicate spanning two atoms
    "project[B](join(R, literal[B]{(0), (1)}))",
]


class TestScreens:
    @pytest.mark.parametrize("reason", DATA_SCREENS)
    def test_data_screen_falls_back(self, reason):
        spoil, texts = DATA_SCREENS[reason]
        db = spoil(ti_database(2, n_relations=2))
        for text in texts:
            assert lift(parse_query(text), db) is None
            got = assert_matches_enumeration(db, text, lifts=False)
            assert values(got) == worlds_truth(db, text)
        # S alone is still tuple-independent
        assert lift(parse_query("project[B](S)"), db) is not None

    @pytest.mark.parametrize("text", PLAN_SCREENS)
    def test_plan_screen_falls_back(self, text):
        db = _complete_database() if "C1" in text else ti_database(2)
        assert lift(parse_query(text), db) is None
        assert_matches_enumeration(db, text, lifts=False)

    def test_a_pushed_down_filter_that_cannot_be_evaluated_falls_back(self):
        """Below the join a selection meets rows the join would have dropped."""
        db = UDatabase()
        add_tuple_independent(db, "R", ("A", "B"), [((4, 2), Fraction(1, 2)), ((1, 0), 1)])
        add_tuple_independent(db, "S", ("B", "C"), [((2, 5), Fraction(1, 3))])
        text = "project[B](select[A / B >= 2](join(R, S)))"  # (1, 0) joins nothing
        assert lift(parse_query(text), db).confidences() is None
        got = assert_matches_enumeration(db, text, lifts=False)
        assert values(got) == {(2,): Fraction(1, 6)}

    @pytest.mark.parametrize("strategy", ["exact-decomposition", "karp-luby"])
    def test_an_explicit_strategy_is_obeyed(self, strategy):
        db, text = ti_database(3, n_rows=(5, 7)), "project[B](join(R, S))"
        with repro.connect(db, strategy=strategy, rng=1) as session:
            assert methods(session.confidence_all(text)) == {strategy}
            assert methods(session.query(text).confidences()) == {strategy}
            assert "extensional" not in str(session.explain(f"conf[P]({text})"))
        with repro.connect(db, rng=1) as session:  # auto session, per-call override
            assert methods(session.confidence_all(text, strategy=strategy)) == {strategy}
            assert methods(session.confidence_all(text)) == {"extensional"}

    def test_a_delegating_wrapper_named_auto_still_sees_every_dnf(self):
        """The route belongs to the strategy object, not to its name."""

        class Delegating(ConfidenceStrategy):
            def __init__(self, inner):
                self.inner, self.name, self.consumes_rng = inner, inner.name, inner.consumes_rng
                self.seen = 0

            cache_token = property(lambda self: self.inner.cache_token)

            def choose(self, dnf):
                return self.inner.choose(dnf)

            def compute(self, dnf, rng, executor=None):
                return self.compute_batch([dnf], rng, executor)[0]

            def compute_batch(self, dnfs, rng, executor=None):
                self.seen += len(dnfs)
                return self.inner.compute_batch(dnfs, rng, executor=executor)

        db, text = ti_database(3, n_rows=(5, 7)), "project[B](join(R, S))"
        wrapper = Delegating(AutoStrategy())
        assert wrapper.name == "auto" and not wrapper.lifts_safe_plans
        with repro.connect(db, strategy=wrapper) as session:
            reports = session.query(text).confidences()
            assert wrapper.seen == len(reports) > 0
            assert methods(reports) == {"exact-decomposition"}
            assert methods(session.confidence_all(text)) == {"exact-decomposition"}
            assert session.topk(text, 1).entries[0].source == "bounds"
            assert "extensional" not in str(session.explain(f"conf[P]({text})"))
        with repro.connect(db) as auto:
            assert values(auto.confidence_all(text)) == values(reports)


# --------------------------------------------------------------------------
# The contract of the route
# --------------------------------------------------------------------------


@pytest.fixture
def dnf_count(monkeypatch):
    """Counts ``Dnf`` constructions and ``auto`` compute calls."""
    counts = {"dnf": 0, "compute": 0}
    init = Dnf.__init__

    def counting_init(self, *args, **kwargs):
        counts["dnf"] += 1
        init(self, *args, **kwargs)

    def counting(method):
        def wrapper(self, *args, **kwargs):
            counts["compute"] += 1
            return method(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(Dnf, "__init__", counting_init)
    monkeypatch.setattr(AutoStrategy, "compute", counting(AutoStrategy.compute))
    monkeypatch.setattr(AutoStrategy, "compute_batch", counting(AutoStrategy.compute_batch))
    return counts


class TestContract:
    def test_plan_screen_before_data_screen_before_any_dnf(self, dnf_count, monkeypatch):
        screened = []
        screen = URelation.independent_rows
        monkeypatch.setattr(
            URelation, "independent_rows", lambda self: screened.append(self) or screen(self)
        )
        db = ti_database(3, n_rows=(5, 7))
        unsafe, safe = "project[A](join(R, S, T))", "project[B](join(R, S))"
        assert lift(parse_query(unsafe), db) is None and not screened  # plan screen only
        assert lift(parse_query(safe), db) is not None and len(screened) == 2
        assert dnf_count["dnf"] == 0

    def test_a_lifted_plan_builds_no_dnf_and_one_memo_entry(self, dnf_count):
        db, text = ti_database(3, n_rows=(5, 7)), "project[B](join(R, S))"
        with repro.connect(db) as session:
            result = session.query(text)
            entries = session.cache_stats["entries"]
            assert entries == 1  # the plan entry; no relation was built
            reports = result.confidences()
            assert session.cache_stats["entries"] == entries  # served from the query's answers
            assert session.confidence_all(text) == reports
            assert session.query(f"conf[P]({text})").relation.rows
            assert session.topk(text, 2).candidates == len(reports)
            str(session.explain(f"conf[P]({text})")), str(session.explain_topk(text, 2))
            assert dnf_count == {"dnf": 0, "compute": 0}
            # an unsafe plan on the same data goes through the strategy, DNF by DNF
            unsafe = session.confidence_all("project[A](join(R, S, T))")
            assert dnf_count["dnf"] >= len(unsafe) > 0 and dnf_count["compute"] >= 1

    def test_the_plan_entry_is_evictable_and_recomputes_identically(self):
        db, text = ti_database(3, floats=True, n_rows=(5, 7)), "project[B](join(R, S))"
        with repro.connect(db) as session:
            first = session.confidence_all(text)
            freed = 0
            while session._cache.evict_lru():  # what a cross-session budget does
                freed += 1
            assert freed == 1 and session.cache_stats["entries"] == 0  # the plan entry alone
            assert session.confidence_all(text) == first

    def test_cold_warm_engine_and_workers_agree_bit_for_bit(self):
        transcripts = set()
        for engine in ENGINES:
            db = on_engine(engine, ti_database(4, floats=True, n_rows=(5, 7)))
            for workers in (None, 2):
                with repro.connect(db, workers=workers, rng=0) as session:
                    for _pass in ("cold", "warm"):
                        out = [
                            sorted((row, repr(report.value)) for row, report in answer.items())
                            for text, lifts in plans_for(db)
                            if lifts
                            for answer in (
                                session.confidence_all(text),
                                session.query(text).confidences(),
                            )
                        ]
                        transcripts.add(repr(out))
        assert len(transcripts) == 1

    def test_identical_across_hash_seeds(self):
        script = textwrap.dedent(
            """
            import sys
            sys.path[:0] = {paths!r}
            import repro
            from test_extensional import plans_for, ti_database
            db = ti_database(4, floats=True, n_rows=(5, 7))
            with repro.connect(db) as session:
                for text, lifts in plans_for(db):
                    if lifts:
                        reports = session.confidence_all(text)
                        assert all(r.method == "extensional" for r in reports.values())
                        print(text, [(row, repr(r.value)) for row, r in reports.items()])
            """
        ).format(
            paths=[
                str(pathlib.Path(__file__).parent),
                str(pathlib.Path(repro.__file__).parent.parent),
            ]
        )
        outputs = set()
        for hashseed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hashseed}
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
            )
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1 and "project[B]" in outputs.pop()

    def test_assign_and_repair_key_retire_the_plan_entry(self):
        db, text = ti_database(3, n_rows=(5, 7)), "project[B](join(R, S))"
        with repro.connect(db, copy=True) as session:
            stale_result = session.query(text)
            before = session.confidence_all(text)
            # W grows (a repair-key fires): the entry is re-keyed, the answer stands
            session.assign("K", "repair-key[B @ W](literal[B, W]{(0, 1), (0, 2)})")
            assert session.confidence_all(text) == before
            # R is replaced: same plan text, new answers
            session.assign("R", "select[A < 1](R)")
            after = session.confidence_all(text)
            assert after != before
            truth = session.confidence_all(text, strategy="exact-enumeration")
            assert values(after) == values(truth)
            assert methods(after) <= {"extensional"}
            # a result asked before the assign answers for the data it was asked on:
            # its captured answers, and a relation built over the relations it read
            assert values(stale_result.confidences()) == values(before)
            assert methods(stale_result.confidences()) == {"extensional"}
            assert stale_result.relation == UEvaluator(db).evaluate(parse_query(text)).relation

    def test_nothing_is_drawn_from_the_session_rng(self):
        db, text = ti_database(3, n_rows=(5, 7)), "project[B](join(R, S))"
        with repro.connect(db, rng=11) as plain, repro.connect(db, rng=11) as lifted_first:
            state = lifted_first.rng.getstate()
            lifted_first.confidence_all(text)
            lifted_first.query(f"conf[P]({text})")
            lifted_first.topk(text, 2)
            assert lifted_first.rng.getstate() == state
            sampled = "project[A](join(R, S, T))"
            assert lifted_first.confidence_all(sampled, strategy="karp-luby") == (
                plain.confidence_all(sampled, strategy="karp-luby")
            )

    def test_the_wire_carries_the_report_unchanged(self):
        db, text = ti_database(3, floats=True, n_rows=(5, 7)), "project[B](join(R, S))"

        async def scenario():
            server = repro.serve(db, workers=1)
            session = await repro.Client(server, tenant="t", wire=True).open_session(seed=3)
            answer = await session.confidence_all(text)
            top = await session.topk(text, 1)
            await session.close()
            await server.aclose()
            return answer, top

        answer, top = asyncio.run(scenario())
        with repro.connect(db, rng=3) as session:
            direct = session.confidence_all(text)
            ranked = session.topk(text, 1)
        assert list(answer) == list(direct)
        for row, report in answer.items():
            expected = direct[row]
            assert report["value"] == expected.value and report["method"] == "extensional"
            assert (report["strategy"], report["exact"], report["samples"]) == ("auto", True, 0)
            assert report["lower"] is None and report["upper"] is None
        assert top["entries"][0]["row"] == ranked.rows[0]
        assert top["entries"][0]["source"] == "exact" and top["total_trials"] == 0


class TestExplain:
    def test_a_lifted_conf_says_extensional_and_nothing_else(self):
        db = ti_database(3, n_rows=(5, 7))
        with repro.connect(db) as session:
            n = len(session.query("project[B](join(R, S))"))
            plan = session.explain("conf[P](project[B](join(R, S)))")
            assert plan.chosen_methods() == {"extensional"}
            head = plan.text.splitlines()[0]
            assert head == f"conf[P]  ·extensional  ← strategy=auto: extensional ×{n}"
            topk = session.explain_topk("project[B](join(R, S))", 1)
            assert topk.text.splitlines()[0] == (
                f"topk  ·topk[1]·extensional  ← strategy=auto: extensional ×{n}"
            )
            unsafe = session.explain("conf[P](project[A](join(R, S, T)))")
            assert "extensional" not in unsafe.text

    def test_the_coin_plan_is_unchanged(self):
        # workers=1: a pooled session (REPRO_WORKERS) adds its ·sharded tag
        with repro.connect(coin_database(), rng=0, workers=1) as session:
            session.assign("R", "project[CoinType](repair-key[@ Count](Coins))")
            assert str(session.explain("conf[P](R)")) == (
                "plan (session strategy: auto)\n"
                "conf[P]  ← strategy=auto: exact-decomposition ×2\n"
                "  scan[R]"
            )
