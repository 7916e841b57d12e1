"""Utility tests plus cross-module integration (Lemma 5.1 statistically)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.algebra.expressions import col, lit
from repro.algebra.relations import Relation
from repro.confidence import BatchKarpLubySampler, probability_by_decomposition
from repro.core import Orthotope, epsilon_for_predicate, clamp_epsilon
from repro.generators.hard import chain_dnf
from repro.util.rng import ensure_rng, spawn_rng
from repro.util.tables import format_table, format_value


class TestRngPlumbing:
    def test_ensure_rng_from_int(self):
        a, b = ensure_rng(5), ensure_rng(5)
        assert a.random() == b.random()

    def test_ensure_rng_passthrough(self):
        r = random.Random(1)
        assert ensure_rng(r) is r

    def test_ensure_rng_none_is_fresh(self):
        assert isinstance(ensure_rng(None), random.Random)

    def test_ensure_rng_rejects_junk(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_spawn_deterministic_tree(self):
        parent1, parent2 = random.Random(7), random.Random(7)
        child1, child2 = spawn_rng(parent1), spawn_rng(parent2)
        assert child1.random() == child2.random()

    def test_spawned_streams_differ(self):
        parent = random.Random(7)
        a, b = spawn_rng(parent), spawn_rng(parent)
        assert a.random() != b.random()


class TestTables:
    def test_format_value_fraction(self):
        assert format_value(Fraction(1, 3)) == "1/3"
        assert format_value(Fraction(4, 2)) == "2"

    def test_format_value_float(self):
        assert format_value(0.123456789) == "0.123457"

    def test_format_table_alignment(self):
        out = format_table(("A", "Long"), [(1, "x"), (22, "yy")], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "A" in lines[1] and "Long" in lines[1]
        assert len(lines) == 5

    def test_relation_str_round_trip(self):
        rel_ = Relation.from_rows(("A",), [(1,), (2,)])
        assert "A" in str(rel_)


class TestLemma51Statistically:
    """The error bound of Lemma 5.1, validated end to end on real samplers.

    Decide φ at the Karp–Luby estimates with the ε computed by Theorem
    5.2; the fraction of wrong decisions must respect Σδᵢ(ε) (with slack
    for the conservativeness of the Chernoff bound).
    """

    def test_decision_error_within_bound(self):
        d = chain_dnf(4)
        truth = float(probability_by_decomposition(d))
        threshold = truth * 0.75
        pred = col("p") >= lit(threshold)
        runs, wrong, bounds = 60, 0, []
        for seed in range(runs):
            sampler = BatchKarpLubySampler(d, rng=seed)
            sampler.run(400)
            p_hat = sampler.estimate
            eps = clamp_epsilon(epsilon_for_predicate(pred, {"p": p_hat}))
            bounds.append(min(0.5, sampler.error_bound(eps)))
            if pred.evaluate({"p": p_hat}) is not True:
                wrong += 1
        mean_bound = sum(bounds) / len(bounds)
        assert wrong / runs <= max(0.15, 3 * mean_bound)

    def test_orthotope_captures_truth_at_rate(self):
        """Pr[p ∉ orthotope(ε)] ≤ δ(ε) empirically."""
        d = chain_dnf(4)
        truth = float(probability_by_decomposition(d))
        eps = 0.15
        runs, misses = 80, 0
        deltas = []
        for seed in range(runs):
            sampler = BatchKarpLubySampler(d, rng=1000 + seed)
            sampler.run(600)
            deltas.append(sampler.error_bound(eps))
            box = Orthotope({"p": sampler.estimate}, eps)
            if not box.contains({"p": truth}, closed=True):
                misses += 1
        mean_delta = sum(deltas) / len(deltas)
        assert misses / runs <= max(0.1, 2 * mean_delta)


class TestEndToEndScenarios:
    def test_cleaning_driver_end_to_end(self):
        """Dirty data → repair-key → σ̂ threshold with Theorem 6.7 driver."""
        from repro.core import evaluate_with_guarantee
        from repro.generators import (
            clean_worlds_query,
            confident_city_selection,
            dirty_person_records,
        )
        import repro
        from repro.urel import UEvaluator
        from repro.algebra.builder import query

        data = dirty_person_records(4, rng=31)
        db = data.database()
        session = repro.connect(db, strategy="exact-decomposition")
        session.assign("Clean", clean_worlds_query())
        q = confident_city_selection(0.55)
        report = evaluate_with_guarantee(q, db, delta=0.05, eps0=0.08, rng=32)
        ideal = UEvaluator(db, copy_db=True).evaluate(query(q)).relation
        ideal_keys = {vals[:2] for _, vals in ideal.rows}
        got_keys = {vals[:2] for _, vals in report.relation.rows}
        singular_keys = {vals[:2] for _, vals in report.singular_rows}
        # Non-singular decisions must agree with the exact evaluation.
        assert got_keys - singular_keys <= ideal_keys | singular_keys
        assert (ideal_keys - singular_keys) - got_keys == set()

    def test_sensor_driver_end_to_end(self):
        from repro.core import evaluate_with_guarantee
        from repro.generators import (
            hot_sensor_selection,
            sensor_readings,
            true_levels_query,
        )
        import repro
        from repro.urel import UEvaluator
        from repro.algebra.builder import query

        data = sensor_readings(3, 2, rng=41)
        db = data.database()
        session = repro.connect(db, strategy="exact-decomposition")
        session.assign("State", true_levels_query())
        q = hot_sensor_selection(0.62)
        report = evaluate_with_guarantee(q, db, delta=0.05, eps0=0.08, rng=42)
        ideal = UEvaluator(db, copy_db=True).evaluate(query(q)).relation
        ideal_sensors = {vals[0] for _, vals in ideal.rows}
        got_sensors = {vals[0] for _, vals in report.relation.rows}
        singular = {vals[0] for _, vals in report.singular_rows}
        assert got_sensors - singular == ideal_sensors - singular
