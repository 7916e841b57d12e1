"""Differential tests: the U-relational engine against the worlds engine.

Theorem 3.1 (completeness of the representation system) plus the
parsimonious-translation correctness the paper builds on: for random
databases and random positive UA queries, evaluating on the succinct
representation and unfolding must equal evaluating world-by-world.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.algebra.builder import Q, query, rel
from repro.algebra.expressions import col, lit
from repro.algebra.relations import Relation
from repro.confidence import ExactDecomposition, ExactEnumeration, KarpLuby
from repro.generators.coins import (
    evidence_query,
    pick_coin_query,
    posterior_query,
    toss_query,
)
from repro.urel import (
    UEvaluator,
    enumerate_worlds,
    from_possible_worlds,
)
from repro.worlds import PossibleWorldsDB, World, evaluate_worlds


def _random_pwdb(seed: int, n_worlds: int = 3) -> PossibleWorldsDB:
    rng = random.Random(seed)
    weights = [rng.randint(1, 5) for _ in range(n_worlds)]
    total = sum(weights)
    worlds = []
    for w in weights:
        r_rows = {
            (rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(0, 4))
        }
        s_rows = {(rng.randint(0, 2),) for _ in range(rng.randint(0, 3))}
        worlds.append(
            World(
                {
                    "R": Relation(("A", "B"), frozenset(r_rows)),
                    "S": Relation(("B",), frozenset(s_rows)),
                },
                Fraction(w, total),
            )
        )
    return PossibleWorldsDB(tuple(worlds))


def _queries() -> list[Q]:
    return [
        rel("R"),
        rel("R").select(col("A") >= lit(1)),
        rel("R").project(["A"]),
        rel("R").project([(col("A") + col("B"), "S")]),
        rel("R").rename({"A": "X", "B": "Y"}),
        rel("R").join(rel("S")),
        rel("R").product(rel("S").rename({"B": "C"})),
        rel("R").project(["B"]).union(rel("S")),
        rel("R").conf(),
        rel("R").select(col("B").eq(1)).project(["A"]).conf(),
        rel("R").poss(),
        rel("R").cert(),
        rel("R").join(rel("S")).project(["A"]).conf(),
        # The ideal σ̂ (exact confidences), one and two conf groups.
        rel("R").approx_select(col("P1") >= lit(Fraction(1, 2)), groups=[["A"]]),
        rel("R").approx_select(col("P1") > col("P2"), groups=[["A"], ["B"]]),
    ]


def _plain(strategy):
    """Evaluate on a plain ``UEvaluator``; confidences by its own seam."""

    def run(udb, q):
        evaluator = UEvaluator(udb, strategy, rng=0)
        relation = evaluator.evaluate(q).relation
        rows, dnfs = evaluator.lineage(relation)
        reports = evaluator.confidences(dnfs, evaluator.exact_strategy)
        return dict(zip(rows, (r.value for r in reports)))

    return run


def _session(strategy, confidences):
    """Evaluate through ``repro.connect``; ``confidences(db, q)`` reads them."""

    def run(udb, q):
        with repro.connect(udb, strategy=strategy, rng=0, copy=True) as db:
            return confidences(db, q)

    return run


def _via_db_confidence(db, q):
    conf = db.confidence(q, p_name="__conf", strategy="exact-decomposition")
    return {row[:-1]: row[-1] for row in conf.rows}


ENGINES = {
    "UEvaluator()": _plain(None),
    "UEvaluator(ExactDecomposition)": _plain(ExactDecomposition()),
    "UEvaluator(ExactEnumeration)": _plain(ExactEnumeration()),
    "query+confidences[enumeration]": _session(
        "exact-enumeration",
        lambda db, q: {row: r.value for row, r in db.query(q).confidences().items()},
    ),
    "query+confidence(row)[decomposition]": _session(
        "exact-decomposition",
        lambda db, q: {row: db.query(q).confidence(row).value for row in db.query(q)},
    ),
    "db.confidence": _session("auto", _via_db_confidence),
    "confidence_all": _session(
        "auto", lambda db, q: {row: r.value for row, r in db.confidence_all(q).items()}
    ),
}


class TestTheorem31:
    """Round-trip: possible worlds → U-relations → the same worlds."""

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_preserves_confidences(self, seed):
        pwdb = _random_pwdb(seed)
        udb = from_possible_worlds(pwdb)
        back = enumerate_worlds(udb)
        for name in pwdb.relation_names:
            for t in pwdb.possible_tuples(name).rows:
                assert back.tuple_confidence(name, t) == pwdb.tuple_confidence(
                    name, t
                ), f"confidence mismatch for {name} {t}"

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_preserves_poss_and_cert(self, seed):
        pwdb = _random_pwdb(seed)
        back = enumerate_worlds(from_possible_worlds(pwdb))
        for name in pwdb.relation_names:
            assert back.possible_tuples(name) == pwdb.possible_tuples(name)
            assert back.certain_tuples(name) == pwdb.certain_tuples(name)

    def test_single_world_round_trip_is_complete(self):
        rel_ = Relation.from_rows(("A",), [(1,)])
        pwdb = PossibleWorldsDB.certain({"R": rel_})
        udb = from_possible_worlds(pwdb)
        assert udb.relation("R").is_certain
        assert len(udb.w) == 0


class TestParsimoniousTranslation:
    """Both engines agree on every operator over random databases."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("q_index", range(15))
    def test_engines_agree(self, q_index, engine):
        """Every entry point of the conf seam, every operator, against the
        world-by-world reference: the result's tuples and their confidences."""
        q = query(_queries()[q_index])
        for seed in range(6):
            pwdb = _random_pwdb(seed)
            ref_conf: dict[tuple, Fraction] = {}
            for rel_out, p in evaluate_worlds(q, pwdb):
                for t in rel_out.rows:
                    ref_conf[t] = ref_conf.get(t, Fraction(0)) + p
            assert ENGINES[engine](from_possible_worlds(pwdb), q) == ref_conf, f"seed {seed}"

    @pytest.mark.parametrize("seed", range(6))
    def test_cert_and_ideal_sigma_stay_exact_under_a_sampler(self, seed):
        """``cert`` and the ideal σ̂ never sample, whatever ``conf`` runs."""
        pwdb = _random_pwdb(seed)
        udb = from_possible_worlds(pwdb)
        sampler = KarpLuby(0.5, 0.5)
        for q in _queries()[11], _queries()[13], _queries()[14]:
            expected = {t for rel_out, _p in evaluate_worlds(query(q), pwdb) for t in rel_out.rows}
            evaluator = UEvaluator(udb, sampler, rng=seed)
            before = evaluator.rng.getstate()
            assert set(evaluator.evaluate(query(q)).relation.possible_tuples().rows) == expected
            with repro.connect(udb, strategy=sampler, rng=seed, copy=True) as db:
                assert set(db.query(q).rows) == expected
                assert db.rng.getstate() == evaluator.rng.getstate() == before


class TestCoinPipelineAgreement:
    """The full Example 2.2 pipeline agrees across engines."""

    def test_posterior_agrees(self, coin_udb, coin_pwdb):
        import repro
        from repro.worlds import evaluate as w_evaluate, evaluate_certain

        session = repro.connect(coin_udb, strategy="exact-decomposition")
        session.assign("R", pick_coin_query())
        session.assign("S", toss_query(2))
        session.assign("T", evidence_query(["H", "H"]))
        u_succinct = session.assign("U", posterior_query()).to_complete()

        db1 = w_evaluate(query(pick_coin_query()), coin_pwdb, "R")
        db2 = w_evaluate(query(toss_query(2)), db1, "S")
        db3 = w_evaluate(query(evidence_query(["H", "H"])), db2, "T")
        u_reference = evaluate_certain(query(posterior_query()), db3)
        assert u_succinct == u_reference

    def test_unfolded_session_matches_worlds_engine(self, coin_udb, coin_pwdb):
        import repro
        from repro.worlds import evaluate as w_evaluate

        session = repro.connect(coin_udb, strategy="exact-decomposition")
        session.assign("R", pick_coin_query())
        session.assign("S", toss_query(2))
        unfolded = enumerate_worlds(session.db)

        db1 = w_evaluate(query(pick_coin_query()), coin_pwdb, "R")
        db2 = w_evaluate(query(toss_query(2)), db1, "S")
        assert unfolded.n_worlds() == db2.n_worlds() == 8
        for t in db2.possible_tuples("S").rows:
            assert unfolded.tuple_confidence("S", t) == db2.tuple_confidence("S", t)


@st.composite
def ti_db(draw):
    """Random small tuple-independent database as both representations."""
    n = draw(st.integers(1, 5))
    rows = []
    for i in range(n):
        a = draw(st.integers(0, 2))
        b = draw(st.integers(0, 2))
        num = draw(st.integers(1, 3))
        rows.append(((a, b), Fraction(num, 4)))
    # deduplicate tuples (independence needs distinct tuples)
    seen = set()
    unique = []
    for values, p in rows:
        if values not in seen:
            seen.add(values)
            unique.append((values, p))
    return unique


class TestTupleIndependentHypothesis:
    @given(ti_db())
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    def test_projection_confidence_matches_enumeration(self, rows):
        from repro.generators.tpdb import tuple_independent

        udb = tuple_independent("R", ("A", "B"), rows)
        evaluator = UEvaluator(udb, copy_db=True)
        projected = evaluator.evaluate(query(rel("R").project(["A"]))).relation
        pwdb = enumerate_worlds(udb)
        rows, dnfs = evaluator.lineage(projected)
        for t, report in zip(rows, evaluator.confidences(dnfs)):
            exact = report.value
            # reference: sum of world weights whose projection contains t
            total = Fraction(0)
            for world in pwdb.worlds:
                if t in world.relation("R").project(["A"]).rows:
                    total += world.probability
            assert exact == total
