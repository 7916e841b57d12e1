"""Dissociation bound intervals and the PTIME pruning they enable.

Covers, in one place:

* the oblivious-bound invariant ``lower ≤ P(F) ≤ upper`` on random
  DNFs (hypothesis), on both the numpy and pure-python pair screens;
* the ``dissociation-bounds`` strategy and its auto routing;
* σ̂ candidate certification — decisions made from the interval box
  alone, with the regression guarantee that pruning never shifts the
  trial streams of candidates that still sample;
* the driver/facade integration (``bounds_certified``, explain
  annotations, protocol encoding).
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.algebra.builder import query, rel
from repro.algebra.expressions import col, lit
from repro.confidence import (
    DEFAULT_BOUND_BUDGET,
    Dnf,
    dissociation_interval,
    dissociation_intervals,
    probability_by_decomposition,
)
import repro.confidence.dissociation as dissociation_module
from repro.core import ApproxQueryEvaluator, evaluate_with_guarantee
from repro.engine import resolve_strategy, strategy_names
from repro.engine.plan import BOUNDS_PRUNED
from repro.generators.hard import bipartite_2dnf
from repro.server.protocol import decode_value, encode_report
from repro.urel.conditions import Condition
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.scope import run_scope


# ------------------------------------------------------------- generators
def _table(n_vars: int, p: Fraction) -> VariableTable:
    w = VariableTable()
    for i in range(n_vars):
        w.add(("x", i), {1: p, 0: 1 - p})
    return w


@st.composite
def random_dnfs(draw) -> Dnf:
    """Small random DNFs over binary variables — exactly solvable, so the
    bound invariant can be checked against ground truth."""
    n_vars = draw(st.integers(2, 6))
    w = _table(n_vars, Fraction(draw(st.integers(1, 4)), 5))
    n_clauses = draw(st.integers(1, 6))
    clauses = []
    for _ in range(n_clauses):
        size = draw(st.integers(1, min(3, n_vars)))
        variables = draw(
            st.lists(st.integers(0, n_vars - 1), min_size=size, max_size=size,
                     unique=True)
        )
        clauses.append(
            Condition({("x", v): draw(st.integers(0, 1)) for v in variables})
        )
    return Dnf(clauses, w)


def _repair_key_dnf(n_alternatives: int = 17, domain: int = 20) -> Dnf:
    """Mutually-exclusive clauses: exact at budget 0, too many clauses for
    the auto policy's small-instance exact routing."""
    w = VariableTable()
    w.add("key", {k: Fraction(1, domain) for k in range(domain)})
    clauses = [Condition({"key": k}) for k in range(n_alternatives)]
    return Dnf(clauses, w)


def _mixed_sigma_db(n_easy: int = 4, n_hard: int = 2) -> UDatabase:
    """σ̂ workload where bound pruning certifies the easy groups and the
    hard (random bipartite 2-DNF) groups genuinely sample."""
    w = VariableTable()
    rows = []
    for a in range(n_easy):
        # Repair-key alternatives: confidence exactly 3/4, certified.
        w.add(("m", a), {k: Fraction(1, 4) for k in range(4)})
        for k in range(3):
            rows.append((Condition({("m", a): k}), (f"easy{a}",)))
    for a in range(n_hard):
        rng = random.Random(100 + a)
        for i in range(12):
            # At 1/3 the read-once floor of a matching stays well below
            # the truth (~0.97), so the default-budget enclosure is loose.
            w.add(("u", a, i), {1: Fraction(1, 3), 0: Fraction(2, 3)})
            w.add(("v", a, i), {1: Fraction(1, 3), 0: Fraction(2, 3)})
        edges = [
            (i, j) for i in range(12) for j in range(12) if rng.random() < 0.5
        ]
        for i, j in edges:
            rows.append(
                (Condition({("u", a, i): 1, ("v", a, j): 1}), (f"hard{a}",))
            )
    db = UDatabase(w=w)
    db.set_relation("R", URelation.from_rows(("A",), rows))
    return db


# The threshold sits inside every hard group's bound interval (checked by
# TestMixedWorkload.test_threshold_is_inside_hard_intervals), so those
# candidates must sample; the easy groups' exact 3/4 decides immediately.
# The hard truths (0.9705, 0.9782) clear it by more than 4 %.
_THRESHOLD = 0.93
_SIGMA_QUERY = rel("R").approx_select(col("P1") > lit(_THRESHOLD), groups=[["A"]])


# -------------------------------------------------------- bound invariant
class TestBoundInvariant:
    @given(random_dnfs())
    @settings(max_examples=80, deadline=None)
    def test_interval_encloses_exact_probability(self, dnf):
        exact = probability_by_decomposition(dnf)
        for budget in (0, DEFAULT_BOUND_BUDGET):
            interval = dissociation_interval(dnf, budget)
            assert interval.lower <= exact <= interval.upper
            assert 0 <= interval.lower and interval.upper <= 1

    @given(random_dnfs())
    @settings(max_examples=40, deadline=None)
    def test_pair_screens_agree(self, dnf):
        """The numpy pair screen and the pure-python one produce identical
        intervals, whatever the component size (fresh Dnf objects: the
        memo must not leak across)."""

        def interval(screen_min):
            with mock.patch.object(dissociation_module, "_NUMPY_SCREEN_MIN", screen_min):
                return dissociation_interval(Dnf(list(dnf.members), dnf.w), 0)

        assert interval(2) == interval(sys.maxsize)

    def test_budget_zero_is_exact_for_read_once(self):
        w = _table(3, Fraction(1, 3))
        dnf = Dnf([Condition({("x", i): 1}) for i in range(3)], w)
        interval = dissociation_interval(dnf, 0)
        assert interval.is_exact
        assert interval.lower == probability_by_decomposition(dnf)

    def test_budget_zero_is_exact_for_repair_key(self):
        dnf = _repair_key_dnf()
        interval = dissociation_interval(dnf, 0)
        assert interval.is_exact
        assert interval.lower == Fraction(17, 20)

    def test_hard_instance_is_loose_but_valid(self):
        dnf = bipartite_2dnf(12, 12, 0.5, rng=7)
        interval = dissociation_interval(dnf)
        assert not interval.is_exact
        assert 0 <= interval.lower < interval.upper <= 1
        assert interval.midpoint in interval

    def test_batch_matches_singles_and_shards(self):
        dnfs = [bipartite_2dnf(6, 6, 0.5, rng=seed) for seed in range(12)]
        singles = [dissociation_interval(d) for d in dnfs]
        assert dissociation_intervals(dnfs) == singles
        from repro.util.parallel import ShardExecutor

        with ShardExecutor(2) as executor, run_scope(executor=executor):
            fresh = [Dnf(list(d.members), d.w) for d in dnfs]
            assert dissociation_intervals(fresh) == singles


# ---------------------------------------------------------------- strategy
class TestDissociationBoundsStrategy:
    def test_registered(self):
        assert "dissociation-bounds" in strategy_names()

    def test_report_carries_guaranteed_interval(self):
        strategy = resolve_strategy("dissociation-bounds")
        report = strategy.compute(bipartite_2dnf(12, 12, 0.5, rng=7), None)
        assert report.method == "dissociation-bounds"
        assert not report.exact
        assert report.lower < report.value < report.upper
        assert report.value == (report.lower + report.upper) / 2

    def test_exact_instances_report_exact(self):
        strategy = resolve_strategy("dissociation-bounds")
        report = strategy.compute(_repair_key_dnf(), None)
        assert report.exact
        assert report.lower == report.value == report.upper == Fraction(17, 20)

    def test_auto_routes_exact_intervals_to_bounds(self):
        auto = resolve_strategy("auto")
        dnf = _repair_key_dnf()  # 17 clauses: past the small-exact gate
        assert auto.choose(dnf) == "dissociation-bounds"
        report = auto.compute(dnf, random.Random(0))
        assert report.strategy == "auto"
        assert report.method == "dissociation-bounds"
        assert report.value == Fraction(17, 20)
        assert report.samples == 0

    def test_auto_keeps_sampling_for_loose_instances(self):
        auto = resolve_strategy("auto")
        dnf = bipartite_2dnf(12, 12, 0.5, rng=7)
        assert auto.choose(dnf) == "karp-luby"
        assert auto.compute(dnf, random.Random(0)).samples > 0

    def test_protocol_roundtrips_interval(self):
        strategy = resolve_strategy("dissociation-bounds")
        report = strategy.compute(_repair_key_dnf(), None)
        wire = decode_value(encode_report(report))
        assert wire["lower"] == Fraction(17, 20)
        assert wire["upper"] == Fraction(17, 20)


# ------------------------------------------------------- σ̂ certification
class TestMixedWorkload:
    def test_threshold_is_inside_hard_intervals(self):
        """Guards the fixture: every hard group's interval must straddle
        the threshold (else the certifier would decide it trial-free and
        the regression below would test nothing)."""
        db = _mixed_sigma_db()
        relation = db.relation("R")
        by_group: dict[object, list[Condition]] = {}
        for cond, values in relation.rows:
            by_group.setdefault(values[0], []).append(cond)
        for name, clauses in by_group.items():
            interval = dissociation_interval(Dnf(clauses, db.w))
            if name.startswith("hard"):
                assert interval.lower < Fraction(_THRESHOLD).limit_denominator() < interval.upper
            else:
                assert interval.is_exact

    def test_easy_groups_certified_hard_groups_sample(self):
        evaluator = ApproxQueryEvaluator(_mixed_sigma_db(), eps0=0.1, rounds=60, rng=11)
        with run_scope(bounds_budget=DEFAULT_BOUND_BUDGET):
            evaluator.evaluate(query(_SIGMA_QUERY))
        by_group = {rec.data[0]: rec.decision for rec in evaluator.decision_log}
        for name, decision in by_group.items():
            if name.startswith("easy"):
                assert decision.certified_by_bounds
                assert decision.total_trials == 0
                assert decision.error_bound == 0.0
                assert decision.value is False  # 3/4 < threshold, certain
            else:
                assert not decision.certified_by_bounds
                assert decision.total_trials > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pruning_never_shifts_surviving_streams(self, workers):
        """The regression contract: at a fixed round budget and seed, the
        decisions of candidates that still sample are bit-identical with
        pruning on and off — certification only removes work, it never
        reroutes randomness."""
        from repro.util.parallel import ShardExecutor

        def transcript(bounds_budget):
            executor = ShardExecutor(workers) if workers > 1 else None
            evaluator = ApproxQueryEvaluator(_mixed_sigma_db(), eps0=0.1, rounds=40, rng=23)
            with run_scope(executor=executor, bounds_budget=bounds_budget):
                evaluator.evaluate(query(_SIGMA_QUERY))
            if executor is not None:
                executor.close()
            return {
                rec.data[0]: (
                    rec.decision.value,
                    rec.decision.total_trials,
                    rec.decision.error_bound,
                    sorted(rec.decision.estimates.items()),
                )
                for rec in evaluator.decision_log
            }

        pruned = transcript(DEFAULT_BOUND_BUDGET)
        unpruned = transcript(0)
        assert set(pruned) == set(unpruned)
        sampled = [k for k in pruned if pruned[k][1] > 0]
        assert sampled  # the matrix means nothing if everything certified
        for key in sampled:
            assert pruned[key] == unpruned[key]

    def test_driver_certifies_and_agrees_with_baseline(self):
        q = query(_SIGMA_QUERY)

        def run(bounds_budget):
            return evaluate_with_guarantee(
                q, _mixed_sigma_db(), delta=0.2, eps0=0.2, rng=5,
                bounds_budget=bounds_budget,
            )

        pruned, unpruned = run(DEFAULT_BOUND_BUDGET), run(None)
        assert unpruned.bounds_certified == 0  # library default: off
        assert pruned.bounds_certified == 4
        assert pruned.achieved and unpruned.achieved
        # Certified error-0 decisions can only shorten the doubling loop.
        assert pruned.evaluations <= unpruned.evaluations
        # The certified-False easy groups (exactly 3/4 < threshold) must be
        # absent either way; the borderline hard groups are each run's
        # δ-guaranteed call and may legitimately differ between runs.
        for report in (pruned, unpruned):
            kept = {values[0] for _, values in report.relation.rows}
            assert not any(name.startswith("easy") for name in kept)


# --------------------------------------------------------- engine facade
class TestEngineIntegration:
    def test_explain_annotates_bounds_pruning(self):
        session = repro.connect(_mixed_sigma_db(), rng=1)
        with session:
            plan = session.explain(_SIGMA_QUERY)
        assert f"{BOUNDS_PRUNED}[4/6]" in (plan.root.path or "")

    def test_facade_defaults_bounds_on(self):
        session = repro.connect(_mixed_sigma_db(), rng=3)
        with session:
            report = session.evaluate_with_guarantee(
                _SIGMA_QUERY, delta=0.2, eps0=0.2
            )
        assert report.bounds_certified == 4

    def test_facade_budget_zero_disables(self):
        session = repro.connect(_mixed_sigma_db(), rng=3)
        with session:
            report = session.evaluate_with_guarantee(
                _SIGMA_QUERY, delta=0.2, eps0=0.2, bounds_budget=0
            )
        assert report.bounds_certified == 0
