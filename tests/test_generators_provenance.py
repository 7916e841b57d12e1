"""Tests for workload generators and the provenance relation ≺."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.algebra.builder import query, rel
from repro.algebra.expressions import col, lit
from repro.algebra.relations import Relation
from repro.confidence import probability_by_decomposition
from repro.generators import (
    alarm_confidence_query,
    bipartite_2dnf,
    bipartite_2dnf_database,
    chain_dnf,
    city_confidence_query,
    clean_worlds_query,
    confident_city_selection,
    dirty_person_records,
    hot_sensor_selection,
    random_tuple_independent,
    sensor_readings,
    true_levels_query,
    tuple_independent,
)
from repro.provenance import evaluate_with_provenance
import repro
from repro.urel import UEvaluator, enumerate_worlds


class TestTupleIndependent:
    def test_confidences_match_inputs(self):
        rows = [(("a", 1), Fraction(1, 3)), (("b", 2), Fraction(2, 3))]
        db = tuple_independent("R", ("A", "B"), rows)
        confidences = repro.connect(db).confidence_all("R")
        assert confidences[("a", 1)].value == Fraction(1, 3)
        assert confidences[("b", 2)].value == Fraction(2, 3)

    def test_probability_one_tuple_certain(self):
        db = tuple_independent("R", ("A",), [(("a",), 1), (("b",), Fraction(1, 2))])
        conditions = db.relation("R").conditions_of(("a",))
        assert conditions[0].is_empty

    def test_probability_zero_dropped(self):
        db = tuple_independent("R", ("A",), [(("a",), 0)])
        assert len(db.relation("R")) == 0

    def test_invalid_probability(self):
        with pytest.raises(ValueError, match="probability"):
            tuple_independent("R", ("A",), [(("a",), 1.5)])

    def test_random_generator_deterministic(self):
        a = random_tuple_independent("R", 10, rng=3)
        b = random_tuple_independent("R", 10, rng=3)
        assert a.relation("R") == b.relation("R")

    def test_worlds_factorize(self):
        db = tuple_independent(
            "R", ("A",), [(("a",), Fraction(1, 2)), (("b",), Fraction(1, 2))]
        )
        pw = enumerate_worlds(db)
        assert pw.n_worlds() == 4


class TestHardInstances:
    def test_bipartite_structure(self):
        d = bipartite_2dnf(3, 4, edge_probability=1.0, rng=0)
        assert d.size == 12
        assert all(len(c) == 2 for c in d.members)

    def test_database_confidence_is_dnf_probability(self):
        db = bipartite_2dnf_database(3, 3, edge_probability=0.7, rng=5)
        from repro.confidence.dnf import Dnf

        urel = db.relation("Hard")
        d = Dnf(urel.conditions_of(()), db.w)
        out = UEvaluator(db, copy_db=True).evaluate(query(rel("Hard").conf()))
        ((_, vals),) = out.relation.rows
        assert vals[0] == probability_by_decomposition(d)

    def test_chain_overlap_flag(self):
        assert chain_dnf(3, overlap=True).variables != chain_dnf(
            3, overlap=False
        ).variables

    def test_never_degenerate(self):
        d = bipartite_2dnf(2, 2, edge_probability=0.0, rng=1)
        assert d.size >= 1


class TestCleaningScenario:
    def test_repair_gives_one_version_per_person(self):
        data = dirty_person_records(5, rng=7)
        db = data.database()
        session = repro.connect(db, strategy="exact-decomposition")
        clean = session.assign("Clean", clean_worlds_query()).relation
        pids = {vals[0] for _, vals in clean.rows}
        assert pids == set(range(5))

    def test_city_confidences_sum_to_one_per_person(self):
        data = dirty_person_records(4, rng=8)
        session = repro.connect(data.database(), strategy="exact-decomposition")
        session.assign("Clean", clean_worlds_query())
        conf = session.query(city_confidence_query()).relation.to_complete()
        by_person: dict[int, Fraction] = {}
        for pid, _city, p in conf.rows:
            by_person[pid] = by_person.get(pid, Fraction(0)) + p
        assert all(total == 1 for total in by_person.values())

    def test_confident_selection_exact(self):
        data = dirty_person_records(4, rng=9)
        session = repro.connect(data.database(), strategy="exact-decomposition")
        session.assign("Clean", clean_worlds_query())
        out = session.query(confident_city_selection(0.6)).relation
        conf = session.query(city_confidence_query()).relation.to_complete()
        expected = {(pid, city) for pid, city, p in conf.rows if p >= Fraction(6, 10)}
        got = {(vals[0], vals[1]) for _, vals in out.rows}
        assert got == expected


class TestSensorScenario:
    def test_state_has_one_level_per_sensor_epoch(self):
        data = sensor_readings(3, 2, rng=11)
        session = repro.connect(data.database(), strategy="exact-decomposition")
        session.assign("State", true_levels_query())
        pw = enumerate_worlds(session.db, max_worlds=100000)
        for world in pw.worlds[:5]:
            keys = [
                (s, e) for s, e, _lvl in world.relation("State").rows
            ]
            assert len(keys) == len(set(keys)) == 6

    def test_alarm_confidence_in_unit_interval(self):
        data = sensor_readings(3, 2, rng=12)
        session = repro.connect(data.database(), strategy="exact-decomposition")
        session.assign("State", true_levels_query())
        conf = session.query(alarm_confidence_query()).relation.to_complete()
        assert conf.rows  # at least one sensor possibly hot
        for _sensor, p in conf.rows:
            assert 0 < p <= 1

    def test_hot_selection_consistent_with_confidence(self):
        data = sensor_readings(4, 2, rng=13)
        session = repro.connect(data.database(), strategy="exact-decomposition")
        session.assign("State", true_levels_query())
        threshold = 0.5
        out = session.query(hot_sensor_selection(threshold)).relation
        conf = session.query(alarm_confidence_query()).relation.to_complete()
        expected = {s for s, p in conf.rows if p >= Fraction(1, 2)}
        got = {vals[0] for _, vals in out.rows}
        assert got == expected


class TestProvenance:
    def _db(self):
        return {
            "R": Relation.from_rows(("A", "B"), [(1, "x"), (2, "y")]),
            "S": Relation.from_rows(("B", "C"), [("x", 10), ("y", 20)]),
        }

    def test_base_lineage_is_self(self):
        result = evaluate_with_provenance(rel("R"), self._db())
        assert result.sources_of((1, "x")) == {("R", (1, "x"))}

    def test_select_preserves(self):
        result = evaluate_with_provenance(
            rel("R").select(col("A").eq(1)), self._db()
        )
        assert result.sources_of((1, "x")) == {("R", (1, "x"))}

    def test_projection_merges_lineage(self):
        db = {"R": Relation.from_rows(("A", "B"), [(1, "x"), (2, "x")])}
        result = evaluate_with_provenance(rel("R").project(["B"]), db)
        assert result.sources_of(("x",)) == {("R", (1, "x")), ("R", (2, "x"))}
        assert result.trail_size(("x",)) == 2

    def test_join_unions_lineage(self):
        result = evaluate_with_provenance(rel("R").join(rel("S")), self._db())
        assert result.sources_of((1, "x", 10)) == {
            ("R", (1, "x")),
            ("S", ("x", 10)),
        }

    def test_union_merges(self):
        db = {
            "R": Relation.from_rows(("A",), [(1,)]),
            "S": Relation.from_rows(("A",), [(1,), (2,)]),
        }
        result = evaluate_with_provenance(rel("R").union(rel("S")), db)
        assert result.sources_of((1,)) == {("R", (1,)), ("S", (1,))}

    def test_example_65_trail_size_is_n(self):
        """π_A over n tuples ⟨a, bᵢ⟩: the output's provenance has size n."""
        n = 6
        db = {"R": Relation.from_rows(("A", "B"), [("a", i) for i in range(n)])}
        result = evaluate_with_provenance(rel("R").project(["A"]), db)
        assert result.trail_size(("a",)) == n

    def test_sigma_hat_links_group_sharers(self):
        db = {"R": Relation.from_rows(("A", "B"), [("a", 1), ("a", 2), ("c", 3)])}
        q = rel("R").approx_select(col("P1") >= lit(0.5), groups=[["A"]])
        result = evaluate_with_provenance(q, db)
        assert result.sources_of(("a",)) == {("R", ("a", 1)), ("R", ("a", 2))}
        assert result.sources_of(("c",)) == {("R", ("c", 3))}

    def test_literal_has_empty_lineage(self):
        from repro.algebra.builder import literal

        result = evaluate_with_provenance(literal(["X"], [[1]]), {})
        assert result.sources_of((1,)) == frozenset()

    def test_unsupported_node_rejected(self):
        with pytest.raises(TypeError, match="positive"):
            evaluate_with_provenance(rel("R") - rel("R"), self._db())
