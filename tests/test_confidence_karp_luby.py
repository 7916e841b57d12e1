"""Tests for the Karp–Luby estimator, the FPRAS, bounds, and the naive baseline.

The samplers are the engine's (:mod:`repro.confidence.batch`).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import repro
from repro.confidence import (
    DEFAULT_BOUND_BUDGET,
    BoundInterval,
    Dnf,
    combine_independent,
    combine_union,
    delta_prime,
    dissociation_interval,
    eps_for_rounds,
    karp_luby_error_bound,
    karp_luby_sample_size,
    naive_sample_size_additive,
    probability_by_decomposition,
    rounds_for,
)
from repro.confidence.batch import (
    BatchKarpLubySampler,
    batch_approximate_confidence,
    batch_naive_confidence,
    karp_luby_ratio,
)
from repro.confidence.dissociation import OPEN_BOUND_BUDGET
from repro.confidence.strategies import AutoStrategy, KarpLuby, _clip
from repro.generators.hard import bipartite_2dnf, chain_dnf, circulant_2dnf
from repro.urel.conditions import Condition
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.parallel import ShardExecutor

def _bool_table(n: int, p: float = 0.5) -> VariableTable:
    w = VariableTable()
    for i in range(n):
        w.add(("x", i), {1: p, 0: 1 - p})
    return w


class TestBounds:
    def test_error_bound_formula(self):
        """δ(ε) = 2·e^{−m·ε²/(3|F|)} exactly."""
        assert karp_luby_error_bound(0.1, 3000, 10) == pytest.approx(
            2.0 * math.exp(-3000 * 0.01 / 30.0)
        )

    def test_error_bound_capped_and_vacuous(self):
        assert karp_luby_error_bound(0.5, 1, 100) == 1.0
        assert karp_luby_error_bound(0.0, 100, 1) == 1.0
        assert karp_luby_error_bound(0.5, 0, 1) == 1.0

    def test_sample_size_formula(self):
        """m = ⌈3|F|·ln(2/δ)/ε²⌉."""
        m = karp_luby_sample_size(0.1, 0.05, 7)
        assert m == math.ceil(3 * 7 * math.log(2 / 0.05) / 0.01)

    def test_sample_size_guarantees_bound(self):
        for eps, delta, size in [(0.1, 0.05, 3), (0.02, 0.01, 11), (0.3, 0.2, 1)]:
            m = karp_luby_sample_size(eps, delta, size)
            assert karp_luby_error_bound(eps, m, size) <= delta

    def test_sample_size_linear_in_f(self):
        assert karp_luby_sample_size(0.1, 0.1, 20) == pytest.approx(
            20 * karp_luby_sample_size(0.1, 0.1, 1), rel=0.01
        )

    def test_sample_size_validation(self):
        with pytest.raises(ValueError):
            karp_luby_sample_size(0, 0.1, 1)
        with pytest.raises(ValueError):
            karp_luby_sample_size(0.1, 0, 1)

    def test_delta_prime_and_rounds_inverse(self):
        rounds = rounds_for(0.1, 0.01)
        assert delta_prime(0.1, rounds) <= 0.01
        assert delta_prime(0.1, rounds - 1) > 0.01

    def test_eps_for_rounds_inverse(self):
        eps = eps_for_rounds(0.05, 400)
        assert delta_prime(eps, 400) == pytest.approx(0.05, rel=1e-9)

    def test_naive_sample_size(self):
        m = naive_sample_size_additive(0.01, 0.05)
        assert m == math.ceil(math.log(2 / 0.05) / (2 * 0.0001))

    def test_combiners(self):
        assert combine_union([0.1, 0.2]) == pytest.approx(0.3)
        assert combine_union([0.9, 0.9]) == 1.0
        assert combine_independent([0.1, 0.2]) == pytest.approx(1 - 0.9 * 0.8)
        assert combine_independent([0.1]) <= combine_union([0.1]) + 1e-12


class TestSamplerDegenerateCases:
    def test_empty_dnf_is_exact_zero(self):
        w = _bool_table(1)
        sampler = BatchKarpLubySampler(Dnf([], w), rng=0)
        assert sampler.is_exact
        assert sampler.estimate == 0.0
        assert sampler.error_bound(0.1) == 0.0

    def test_trivially_true_is_exact_one(self):
        w = _bool_table(1)
        sampler = BatchKarpLubySampler(Dnf([Condition()], w), rng=0)
        assert sampler.is_exact
        assert sampler.estimate == 1.0

    def test_singleton_is_exact_weight(self):
        w = _bool_table(2, 0.3)
        d = Dnf([Condition({("x", 0): 1, ("x", 1): 1})], w)
        sampler = BatchKarpLubySampler(d, rng=0)
        assert sampler.is_exact
        assert sampler.estimate == pytest.approx(0.09)

    def test_no_trials_error(self):
        w = _bool_table(2)
        d = Dnf([Condition({("x", 0): 1}), Condition({("x", 1): 1})], w)
        sampler = BatchKarpLubySampler(d, rng=0)
        with pytest.raises(RuntimeError, match="no trials"):
            _ = sampler.estimate


class TestUnbiasedness:
    """E[X·M/m] = p — the Section 4 derivation, checked statistically."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_estimate_converges_on_2dnf(self, seed):
        d = bipartite_2dnf(4, 4, edge_probability=0.5, rng=seed)
        truth = float(probability_by_decomposition(d))
        sampler = BatchKarpLubySampler(d, rng=seed + 100)
        sampler.run(30_000)
        assert sampler.estimate == pytest.approx(truth, rel=0.05)

    def test_estimate_converges_on_chain(self):
        d = chain_dnf(6)
        truth = float(probability_by_decomposition(d))
        sampler = BatchKarpLubySampler(d, rng=9)
        sampler.run(30_000)
        assert sampler.estimate == pytest.approx(truth, rel=0.05)

    def test_estimate_within_m_over_f_range(self):
        """Each trial is 0/1, so p̂ ∈ [0, M]."""
        d = chain_dnf(5)
        sampler = BatchKarpLubySampler(d, rng=3)
        sampler.run(500)
        assert 0.0 <= sampler.estimate <= float(d.total_weight)


class TestFpras:
    def test_guarantee_holds_empirically(self):
        """Repeat (ε, δ) runs; relative-error failures must be ≤ δ-ish."""
        d = bipartite_2dnf(3, 3, edge_probability=0.6, rng=77)
        truth = float(probability_by_decomposition(d))
        eps, delta = 0.2, 0.2
        rng = random.Random(123)
        failures = 0
        runs = 60
        for _ in range(runs):
            est = batch_approximate_confidence(d, eps, delta, rng)
            if abs(est.estimate - truth) >= eps * truth:
                failures += 1
        # Chernoff is conservative; allow generous slack over δ·runs.
        assert failures <= max(3, int(2 * delta * runs))

    def test_metadata(self):
        d = chain_dnf(3)
        est = batch_approximate_confidence(d, 0.3, 0.3, rng=1)
        assert est.samples == karp_luby_sample_size(0.3, 0.3, d.size)
        assert est.size == d.size
        assert est.eps == 0.3 and est.delta == 0.3
        assert not est.exact

    def test_exact_shortcut(self):
        w = _bool_table(1, 0.4)
        d = Dnf([Condition({("x", 0): 1})], w)
        est = batch_approximate_confidence(d, 0.1, 0.1, 1)
        assert est.exact
        assert est.estimate == pytest.approx(0.4)
        assert est.error_bound(0.01) == 0.0


class TestNaiveBaseline:
    def test_converges(self):
        d = chain_dnf(4)
        truth = float(probability_by_decomposition(d))
        est = batch_naive_confidence(d, 40_000, rng=11)
        assert est.estimate == pytest.approx(truth, abs=0.02)

    def test_additive_bound(self):
        est = batch_naive_confidence(chain_dnf(3), 1000, rng=2)
        assert est.additive_error_bound(0.05) == pytest.approx(
            2 * math.exp(-2 * 1000 * 0.0025)
        )

    def test_degenerate(self):
        w = _bool_table(1)
        assert batch_naive_confidence(Dnf([], w), 10, 1).estimate == 0.0
        assert batch_naive_confidence(Dnf([Condition()], w), 10, 1).estimate == 1.0

    def test_relative_error_worse_than_karp_luby_for_rare_events(self):
        """The motivating gap: at equal budget, KL has far smaller relative
        error on a low-probability disjunction."""
        w = VariableTable()
        for i in range(4):
            w.add(("x", i), {1: 0.01, 0: 0.99})
        clauses = [Condition({("x", i): 1, ("x", (i + 1) % 4): 1}) for i in range(4)]
        d = Dnf(clauses, w)
        truth = float(probability_by_decomposition(d))
        budget = 4000
        kl_errors, mc_errors = [], []
        for seed in range(15):
            kl = BatchKarpLubySampler(d, rng=seed)
            kl.run(budget)
            kl_errors.append(abs(kl.estimate - truth) / truth)
            mc = batch_naive_confidence(d, budget, rng=1000 + seed)
            mc_errors.append(abs(mc.estimate - truth) / truth)
        assert sum(kl_errors) < sum(mc_errors)


def _loose_dnfs() -> list[Dnf]:
    """DNFs whose enclosure stays loose, so ``auto`` samples them."""
    return [circulant_2dnf(8, rng=seed) for seed in range(3)] + [
        bipartite_2dnf(6, 6, 0.5, var_probability=Fraction(3, 10), rng=seed)
        for seed in range(3)
    ]


def _circulant_db(n_tuples: int = 3) -> UDatabase:
    """H(T): one loose circulant 2-DNF per tuple over one W — ``sampled_conf``'s shape."""
    w = VariableTable()
    rows = []
    for t in range(n_tuples):
        dnf = circulant_2dnf(8, rng=t, w=w, tag=t)
        rows += [(clause, (t,)) for clause in dnf.members]
    db = UDatabase(w=w)
    db.set_relation("H", URelation.from_rows(("T",), rows))
    return db


def _sampling_auto(eps=0.3, delta=0.2) -> AutoStrategy:
    """``auto`` with steps 3 and 4 starved, so small DNFs reach step 5."""
    return AutoStrategy(eps, delta, max_exact_size=0, bounds_budget=0)


class TestEnclosureSizedBudget:
    """``auto``'s step 5: Karp–Luby sized by M / max(L, max p_f), clipped into [L, U]."""

    def test_ratio_never_exceeds_size(self):
        for dnf in _loose_dnfs():
            assert karp_luby_ratio(dnf) == dnf.size
            assert karp_luby_ratio(dnf, Fraction(0)) <= dnf.size
            for budget in (0, DEFAULT_BOUND_BUDGET):
                lower = dissociation_interval(dnf, budget).lower
                ratio = karp_luby_ratio(dnf, lower)
                assert 1 <= ratio <= dnf.size
                assert karp_luby_sample_size(0.1, 0.01, ratio) <= karp_luby_sample_size(
                    0.1, 0.01, dnf.size
                )

    def test_degenerate_dnfs_draw_no_trials(self):
        w = _bool_table(2, 0.3)
        for dnf in (
            Dnf([], w),
            Dnf([Condition()], w),
            Dnf([Condition({("x", 0): 1, ("x", 1): 1})], w),
        ):
            auto = _sampling_auto()
            assert auto.compute(dnf, random.Random(0)).samples == 0
            estimate = batch_approximate_confidence(dnf, 0.3, 0.2, 0, lower=Fraction(0))
            assert estimate.samples == 0 and estimate.exact

    def test_clipped_estimates_lie_in_enclosure(self):
        """Few trials scatter the raw estimate; the report is it, moved into [L, U]."""
        auto = AutoStrategy(0.9, 0.5, max_exact_size=0, bounds_budget=0)
        dnf = bipartite_2dnf(6, 6, 0.5, var_probability=Fraction(7, 10), rng=3)
        interval = dissociation_interval(dnf, 0)
        clipped = 0
        for seed in range(40):
            report = auto.compute(dnf, random.Random(seed))
            raw = batch_approximate_confidence(
                dnf, 0.9, 0.5, random.Random(seed), lower=interval.lower
            ).estimate
            assert (report.lower, report.upper) == (interval.lower, interval.upper)
            assert report.lower <= report.value <= report.upper
            if raw in interval:
                assert report.value == raw
            else:
                clipped += 1
                bound = interval.upper if raw > interval.upper else interval.lower
                assert report.value == pytest.approx(float(bound))
        assert clipped > 0

    def test_clip_keeps_exact_bound_for_subfloat_interval(self):
        lower = Fraction(1, 3)
        interval = BoundInterval(lower, lower + Fraction(1, 10**30))
        assert _clip(0.5, interval) in interval
        assert _clip(0.1, interval) in interval
        assert _clip(0.25, BoundInterval(Fraction(1, 10), Fraction(1, 2))) == 0.25

    def test_karp_luby_strategy_keeps_paper_budget(self):
        strategy = KarpLuby(0.1, 0.05)
        for dnf in _loose_dnfs():
            report = strategy.compute(dnf, random.Random(1))
            assert report.samples == karp_luby_sample_size(0.1, 0.05, dnf.size)
            assert report.lower is None and report.upper is None

    def test_auto_sizes_by_its_enclosure(self):
        """An open DNF is sized by its step-4 enclosure: the one-expansion solve."""
        auto = AutoStrategy(0.1, 0.05)
        for dnf in _loose_dnfs()[:3]:
            assert not dissociation_interval(dnf, auto.bounds_budget).is_exact
            interval = dissociation_interval(dnf, OPEN_BOUND_BUDGET)
            report = auto.compute(dnf, random.Random(1))
            assert report.method == "karp-luby"
            assert (report.lower, report.upper) == (interval.lower, interval.upper)
            assert report.samples == karp_luby_sample_size(
                0.1, 0.05, karp_luby_ratio(dnf, interval.lower)
            )
            assert report.samples < karp_luby_sample_size(0.1, 0.05, dnf.size)

    def test_results_bit_identical_across_workers(self):
        """Default-plan and item-cut runs (``(dnf, enclosure)`` pairs), one answer."""
        db = _circulant_db(4)
        answers = []
        for workers in (None, 2):
            with repro.connect(db, workers=workers, rng=5, eps=0.2, delta=0.1) as session:
                answers.append(session.confidence_all("H"))
        for workers in (1, 2):
            executor = ShardExecutor(workers, min_shard_items=1)
            with executor, repro.connect(
                db, workers=executor, rng=5, eps=0.2, delta=0.1
            ) as session:
                answers.append(session.confidence_all("H"))
        assert all(r.method == "karp-luby" for r in answers[0].values())
        assert all(answer == answers[0] for answer in answers[1:])
