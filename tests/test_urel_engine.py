"""Tests for U-relations, the Section 3 translation, and the U-rel engine.

Includes the Figure 1 shape checks (experiment E2's assertions) and the
Example 2.2 posterior on the succinct representation.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.algebra.builder import literal, query, rel
from repro.algebra.expressions import col
from repro.algebra.relations import Relation
from repro.generators.coins import (
    pick_coin_query,
    toss_query,
)
import repro
from repro.urel import (
    TOP,
    Condition,
    UDatabase,
    URelation,
    UEvaluator,
    VariableTable,
    translate_repair_key,
)
from repro.worlds.repair import RepairError


def _evaluator(w: VariableTable) -> UEvaluator:
    """The plain evaluator (exact decomposition) over W table ``w``."""
    return UEvaluator(UDatabase(w=w), copy_db=False)


def _conf_relation(urel, w, p_name="P"):
    return _evaluator(w).conf(urel, p_name)


def _tuple_confidence(urel, row, w):
    evaluator = _evaluator(w)
    [report] = evaluator.confidences(evaluator.lineage(urel, [row])[1])
    return report.value


def _session(db: UDatabase) -> repro.ProbDB:
    """An exact, in-place engine session (the old ``USession`` behavior)."""
    return repro.connect(db, strategy="exact-decomposition")


def _ti_relation() -> tuple[URelation, VariableTable]:
    """Two-tuple tuple-independent relation over Boolean variables."""
    w = VariableTable()
    w.add("X", {1: Fraction(1, 2), 0: Fraction(1, 2)})
    w.add("Y", {1: Fraction(1, 3), 0: Fraction(2, 3)})
    urel = URelation.from_rows(
        ("A",), [(Condition({"X": 1}), ("a",)), (Condition({"Y": 1}), ("b",))]
    )
    return urel, w


class TestURelation:
    def test_from_complete_gives_empty_conditions(self):
        rel_ = Relation.from_rows(("A",), [(1,), (2,)])
        urel = URelation.from_complete(rel_)
        assert urel.is_certain
        assert urel.to_complete() == rel_

    def test_to_complete_requires_certain(self):
        urel, _ = _ti_relation()
        with pytest.raises(ValueError, match="not certain"):
            urel.to_complete()

    def test_select_preserves_conditions(self):
        urel, _ = _ti_relation()
        out = urel.select(col("A").eq("a"))
        assert len(out) == 1
        (cond, values), = out.rows
        assert values == ("a",)
        assert cond == Condition({"X": 1})

    def test_project_keeps_d(self):
        urel, _ = _ti_relation()
        out = urel.project(["A"])
        assert len(out) == 2  # same tuples, conditions kept

    def test_project_merges_same_condition_and_value(self):
        w = VariableTable()
        w.add("X", {1: Fraction(1, 2), 0: Fraction(1, 2)})
        urel = URelation.from_rows(
            ("A", "B"),
            [
                (Condition({"X": 1}), ("a", 1)),
                (Condition({"X": 1}), ("a", 2)),
            ],
        )
        assert len(urel.project(["A"])) == 1

    def test_product_merges_consistent_conditions(self):
        urel, _ = _ti_relation()
        other = URelation.from_rows(("B",), [(Condition({"X": 1}), (10,))])
        out = urel.product(other)
        conds = {cond for cond, _ in out.rows}
        assert Condition({"X": 1}) in conds  # a × 10 merged
        assert Condition({"X": 1, "Y": 1}) in conds  # b × 10 merged

    def test_product_drops_inconsistent_pairs(self):
        left = URelation.from_rows(("A",), [(Condition({"X": 1}), ("a",))])
        right = URelation.from_rows(("B",), [(Condition({"X": 0}), (9,))])
        assert len(left.product(right)) == 0

    def test_natural_join_matches_data_and_conditions(self):
        left = URelation.from_rows(
            ("A", "B"), [(Condition({"X": 1}), ("a", 1)), (TOP, ("b", 2))]
        )
        right = URelation.from_rows(
            ("B", "C"), [(Condition({"X": 1}), (1, "c")), (Condition({"X": 0}), (2, "d"))]
        )
        out = left.natural_join(right)
        assert {vals for _, vals in out.rows} == {("a", 1, "c"), ("b", 2, "d")}

    def test_union(self):
        urel, _ = _ti_relation()
        out = urel.union(urel)
        assert out == urel

    def test_difference_complete_only(self):
        urel, _ = _ti_relation()
        complete = URelation.from_complete(Relation.from_rows(("A",), [("a",)]))
        with pytest.raises(ValueError, match="complete"):
            urel.difference_complete(complete)
        full = URelation.from_complete(Relation.from_rows(("A",), [("a",), ("b",)]))
        out = full.difference_complete(complete)
        assert out.to_complete().rows == {("b",)}

    def test_conditions_of(self):
        urel, _ = _ti_relation()
        assert urel.conditions_of(("a",)) == [Condition({"X": 1})]
        assert urel.conditions_of(("zzz",)) == []

    def test_in_world(self):
        urel, _ = _ti_relation()
        world = {"X": 1, "Y": 0}
        assert urel.in_world(world).rows == {("a",)}


class TestRepairKeyTranslation:
    def test_requires_complete(self):
        urel, w = _ti_relation()
        with pytest.raises(RepairError, match="complete"):
            translate_repair_key(urel, (), "A", op_id=1, w=w)

    def test_singleton_groups_get_no_variable(self):
        """Figure 1(b): the 2headed rows carry empty conditions."""
        w = VariableTable()
        rel_ = Relation.from_rows(("K", "V", "Wt"), [(1, "only", 5)])
        out = translate_repair_key(URelation.from_complete(rel_), ("K",), "Wt", 1, w)
        assert out.is_certain
        assert len(w) == 0

    def test_groups_become_variables_with_normalized_weights(self):
        w = VariableTable()
        rel_ = Relation.from_rows(("K", "V", "Wt"), [(1, "a", 1), (1, "b", 3)])
        out = translate_repair_key(URelation.from_complete(rel_), ("K",), "Wt", 7, w)
        assert len(w) == 1
        var = ("rk", 7, (1,))
        assert var in w
        dist = w.distribution(var)
        assert set(dist.values()) == {Fraction(1, 4), Fraction(3, 4)}
        assert len(out) == 2
        assert not out.is_certain

    def test_confidences_after_repair(self):
        w = VariableTable()
        rel_ = Relation.from_rows(("K", "V", "Wt"), [(1, "a", 1), (1, "b", 3)])
        out = translate_repair_key(URelation.from_complete(rel_), ("K",), "Wt", 3, w)
        assert _tuple_confidence(out, (1, "a", 1), w) == Fraction(1, 4)
        assert _tuple_confidence(out, (1, "b", 3), w) == Fraction(3, 4)

    def test_bad_weight_rejected(self):
        w = VariableTable()
        rel_ = Relation.from_rows(("K", "Wt"), [(1, -2), (1, 1)])
        with pytest.raises(RepairError, match="> 0"):
            translate_repair_key(URelation.from_complete(rel_), ("K",), "Wt", 1, w)


class TestConfTranslation:
    def test_exact_confidence_relation(self):
        urel, w = _ti_relation()
        out = _conf_relation(urel, w)
        assert out.is_certain
        assert out.to_complete().rows == {
            ("a", Fraction(1, 2)),
            ("b", Fraction(1, 3)),
        }

    def test_conf_p_collision(self):
        urel, w = _ti_relation()
        with pytest.raises(Exception, match="collides"):
            _conf_relation(urel, w, p_name="A")

    def test_duplicate_tuple_disjunction(self):
        """Two conditions for the same tuple: P = Pr[X=1 ∨ Y=1]."""
        w = VariableTable()
        w.add("X", {1: Fraction(1, 2), 0: Fraction(1, 2)})
        w.add("Y", {1: Fraction(1, 2), 0: Fraction(1, 2)})
        urel = URelation.from_rows(
            ("A",), [(Condition({"X": 1}), ("a",)), (Condition({"Y": 1}), ("a",))]
        )
        out = _conf_relation(urel, w)
        assert out.to_complete().rows == {("a", Fraction(3, 4))}


class TestFigure1:
    """The exact U-relational databases of Figure 1."""

    def test_u_r_and_w_after_r(self, coin_udb):
        session = _session(coin_udb)
        u_r = session.assign("R", pick_coin_query()).relation
        assert len(u_r) == 2
        conditions = {cond for cond, _ in u_r.rows}
        assert all(len(cond) == 1 for cond in conditions)
        # W holds one variable with the marginals 2/3 and 1/3.
        assert len(coin_udb.w) == 1
        (var,) = coin_udb.w.variables
        assert sorted(coin_udb.w.distribution(var).values()) == [
            Fraction(1, 3),
            Fraction(2, 3),
        ]

    def test_u_s_conditions_match_figure(self, coin_udb):
        session = _session(coin_udb)
        session.assign("R", pick_coin_query())
        u_s = session.assign("S", toss_query(2)).relation
        by_coin: dict[str, list] = {}
        for cond, values in u_s.rows:
            by_coin.setdefault(values[0], []).append(cond)
        # fair rows are conditioned (4 rows), 2headed rows are not (2 rows).
        assert len(by_coin["fair"]) == 4
        assert all(len(c) == 1 for c in by_coin["fair"])
        assert len(by_coin["2headed"]) == 2
        assert all(c.is_empty for c in by_coin["2headed"])
        # W now holds the coin choice + one variable per fair toss.
        assert len(coin_udb.w) == 3

    def test_u_t_condition_sizes(self, coin_session_after_T):
        u_t = coin_session_after_T.db.relation("T")
        sizes = {values[0]: len(cond) for cond, values in u_t.rows}
        assert sizes == {"fair": 3, "2headed": 1}

    def test_posterior_table_u(self, coin_session_after_T, posterior_q):
        u = coin_session_after_T.assign("U", posterior_q)
        assert u.to_complete().rows == {
            ("fair", Fraction(1, 3)),
            ("2headed", Fraction(2, 3)),
        }


class TestUEngineMisc:
    def test_evaluate_does_not_mutate_db(self, coin_udb):
        before = len(coin_udb.w)
        repro.connect(coin_udb, strategy="exact-decomposition", copy=True).query(
            query(pick_coin_query())
        )
        assert len(coin_udb.w) == before

    def test_difference_on_uncertain_rejected(self, coin_udb):
        session = _session(coin_udb)
        session.assign("R", pick_coin_query())
        with pytest.raises(ValueError, match="positive UA"):
            session.query(rel("R") - rel("R"))

    def test_cert_via_exact_conf(self, coin_udb):
        session = _session(coin_udb)
        session.assign("R", pick_coin_query())
        both = session.query(rel("R").poss()).relation
        cert = session.query(rel("R").cert()).relation
        assert len(both) == 2
        assert len(cert) == 0

    def test_literal_relation(self, coin_udb):
        out = _session(coin_udb).query(query(literal(["Toss"], [[1], [2]]))).relation
        assert out.is_certain
        assert out.to_complete().rows == {(1,), (2,)}

    def test_session_tracks_completeness(self, coin_udb):
        session = _session(coin_udb)
        session.assign("R", pick_coin_query())
        assert not coin_udb.is_complete("R")
        session.assign("C", rel("R").conf())
        assert coin_udb.is_complete("C")

    def test_udatabase_complete_flag_validation(self):
        urel, w = _ti_relation()
        with pytest.raises(ValueError, match="complete"):
            UDatabase({"R": urel}, w, {"R"})
