"""Empirical checks of the paper's probabilistic guarantees.

The determinism suites prove that answers repeat; these prove that they
are *right often enough*: many seeded replications on instances small
enough for exact decomposition to give ground truth, with the observed
failure share held to the stated δ plus a binomial tolerance.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import repro
from repro.algebra.expressions import col, lit
from repro.confidence.batch import available_backends
from repro.confidence.bounds import rounds_for
from repro.confidence.dissociation import DEFAULT_BOUND_BUDGET, dissociation_interval
from repro.confidence.dnf import Dnf
from repro.confidence.exact import probability_by_decomposition
from repro.confidence.strategies import AutoStrategy, KarpLuby, NaiveMonteCarlo
from repro.core import approximate_predicate
from repro.core.topk import race_topk
from repro.generators.hard import bipartite_2dnf, chain_dnf, circulant_2dnf
from repro.urel.conditions import Condition
from repro.urel.evaluate import UEvaluator
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable

TAU, DELTA, EPS0 = 0.5, 0.1, 0.05
CONTESTED_GAP = 0.3


def _k33_clauses(c: int, w: VariableTable) -> list[dict]:
    """The complete bipartite K₃,₃ 2-DNF over fair coins: bound solvers crack it."""
    for side in "xy":
        for i in range(3):
            w.add((side, c, i), {1: Fraction(1, 2), 0: Fraction(1, 2)})
    return [{("x", c, a): 1, ("y", c, b): 1} for a in range(3) for b in range(3)]


def _circulant_clauses(c: int, w: VariableTable) -> list[dict]:
    """``guarantee_select``'s 5-regular side-12 circulant: its lower bound stays loose."""
    dnf = circulant_2dnf(12, offsets=(0, 1, 2, 3, 5), rng=c, w=w, tag=c)
    return [dict(clause.items()) for clause in dnf.members]


def _contested_selection_db(
    seed: int = 4, n_contested: int = 2, gap: float = CONTESTED_GAP, clauses=_k33_clauses
) -> UDatabase:
    """G(A): four repair-key groups plus ``n_contested`` candidates near τ.

    The shape of the end-to-end ``guarantee_select`` workload, shrunk: a
    group tuple holds two of the four alternatives of one variable
    (mutually exclusive clauses, confidences 0.2 … 0.8 clear of τ); a
    contested candidate is a 2-DNF (``clauses``) conjoined with a private
    variable z that places its confidence at τ·(1 + gap).
    """
    rng = random.Random(seed)
    w = VariableTable()
    rows = []
    for k, percent in enumerate((20, 35, 65, 80)):
        first = rng.randint(1, percent - 1)
        third = rng.randint(1, 99 - percent)
        weights = [first, percent - first, third, 100 - percent - third]
        w.add(("rk", k), {v: Fraction(wt, 100) for v, wt in enumerate(weights)})
        rows += [(Condition({("rk", k): v}), (k,)) for v in (0, 1)]
    for c in range(n_contested):
        candidate = clauses(c, w)
        p_f = probability_by_decomposition(Dnf([Condition(cl) for cl in candidate], w))
        p_z = Fraction(TAU * (1 + gap)).limit_denominator(1000) / p_f
        w.add(("z", c), {1: p_z, 0: 1 - p_z})
        rows += [(Condition({**cl, ("z", c): 1}), (1000 + c,)) for cl in candidate]
    db = UDatabase(w=w)
    db.set_relation("G", URelation.from_rows(("A",), rows))
    return db


def _exact_confidences(db: UDatabase) -> dict:
    with repro.connect(db, strategy="exact-decomposition") as exact:
        return {row[0]: rep.value for row, rep in exact.confidence_all("G").items()}


def test_driver_membership_error_stays_within_delta():
    """Theorem 6.7: each tuple is misplaced with probability at most δ.

    200 seeded driver runs; ``bounds_budget=0`` so every candidate's
    decision rides on sampled Figure 3 rounds, not on certified bounds.
    Tuples inside the ε₀ band around τ or flagged singular are outside
    the guarantee, exactly as the theorem states it.
    """
    replications = 200
    db = _contested_selection_db()
    truth = _exact_confidences(db)
    assert all(abs(p / TAU - 1) > EPS0 for p in truth.values())

    misplaced = dict.fromkeys(truth, 0)
    sampled = 0
    with repro.connect(db, rng=0) as session:
        for seed in range(replications):
            report = session.evaluate_with_guarantee(
                "aselect[P > 0.5 ; conf(A) as P](G)",
                delta=DELTA,
                eps0=EPS0,
                rng=seed,
                bounds_budget=0,
            )
            assert report.achieved
            sampled += sum(r.decision.total_trials for r in report.decisions)
            kept = {values[0] for _cond, values in report.relation.rows}
            flagged = {values[0] for _cond, values in report.singular_rows}
            for key, confidence in truth.items():
                if key not in flagged and (key in kept) != (confidence > TAU):
                    misplaced[key] += 1
    assert sampled > 0  # the guarantee is vacuous unless decisions sample
    # Three binomial standard deviations above δ.
    tolerance = 3 * math.sqrt(DELTA * (1 - DELTA) / replications)
    for key, count in misplaced.items():
        assert count / replications <= DELTA + tolerance, (key, count)


SINGLE_CANDIDATE_FLAGS = "measured 41/200 = 20.5 % of runs flag the candidate singular"


@pytest.mark.slow
@pytest.mark.parametrize(
    "n_contested",
    [
        2,
        pytest.param(1, marks=pytest.mark.xfail(strict=True, reason=SINGLE_CANDIDATE_FLAGS)),
    ],
)
def test_driver_rarely_flags_a_clear_candidate_singular(n_contested):
    """Theorem 6.7 at the driver, on candidates 50 % above τ that only sampling decides.

    Each contested candidate is ``guarantee_select``'s circulant 2-DNF,
    whose loose lower bound leaves ``P > τ`` to the sampled rounds under
    the default bound budget.  At confidence 1.5·τ the candidate is far
    outside the ε₀ band, so over 200 seeded driver runs it may be
    misplaced *or* excluded as suspected-singular in at most a δ share
    (plus three binomial standard deviations).  Two such candidates hold
    it; a lone one is flagged far more often, because the driver stops
    as soon as every candidate it has not flagged meets δ.
    """
    replications = 200
    db = _contested_selection_db(n_contested=n_contested, gap=0.5, clauses=_circulant_clauses)
    truth = _exact_confidences(db)
    contested = [key for key in truth if key >= 1000]
    assert all(truth[key] / TAU - 1 == 0.5 for key in contested)
    lost = dict.fromkeys(contested, 0)
    sampled = 0
    with repro.connect(db, rng=0) as session:
        for seed in range(replications):
            report = session.evaluate_with_guarantee(
                "aselect[P > 0.5 ; conf(A) as P](G)", delta=DELTA, eps0=EPS0, rng=seed
            )
            assert report.achieved
            sampled += sum(r.decision.total_trials for r in report.decisions)
            kept = {values[0] for _cond, values in report.relation.rows}
            flagged = {values[0] for _cond, values in report.singular_rows}
            for key in contested:
                lost[key] += key in flagged or key not in kept
    assert sampled > 0
    tolerance = 3 * math.sqrt(DELTA * (1 - DELTA) / replications)
    for key, count in lost.items():
        assert count / replications <= DELTA + tolerance, (key, count)


# ------------------------------------------- Theorem 5.8's decision error
THM58_EPS0, THM58_DELTA = 0.25, 0.1


@pytest.mark.slow
@pytest.mark.parametrize("margin", [2.0, 1.2], ids=["2eps0", "1.2eps0"])
def test_figure3_decision_error_stays_within_delta(margin):
    """Theorem 5.8: off the ε₀-singularities, Figure 3 errs with probability ≤ δ.

    ``p ≥ τ`` on a small non-read-once DNF with exact p, τ placed at a
    relative margin of ``margin``·ε₀ below and above p (so ε_φ(p) is
    that margin).  200 seeded runs per side; the wrong-decision share is
    held to δ plus three binomial standard deviations.
    """
    replications = 200
    dnf = chain_dnf(4)
    truth = probability_by_decomposition(dnf)
    tolerance = 3 * math.sqrt(THM58_DELTA * (1 - THM58_DELTA) / replications)
    for side in (-1, 1):
        tau = float(truth) * (1 + side * margin * THM58_EPS0)
        assert 0 < tau < 1
        wrong = 0
        for seed in range(replications):
            decision = approximate_predicate(
                col("p") >= lit(tau), {"p": dnf}, THM58_EPS0, THM58_DELTA, rng=seed
            )
            assert decision.total_trials > 0
            wrong += decision.value != (truth >= tau)
        assert wrong / replications <= THM58_DELTA + tolerance, (side, wrong)


@pytest.mark.slow
def test_figure3_terminates_at_an_exact_singularity():
    """At τ = p the loop still ends, by ε₀'s own round count, clamped and flagged."""
    dnf = chain_dnf(4)
    tau = float(probability_by_decomposition(dnf))
    limit = rounds_for(THM58_EPS0, THM58_DELTA) + 1
    for seed in range(200):
        decision = approximate_predicate(
            col("p") >= lit(tau), {"p": dnf}, THM58_EPS0, THM58_DELTA, rng=seed
        )
        assert decision.rounds <= limit, seed
        assert decision.eps == THM58_EPS0, seed
        assert decision.suspected_singularity, seed


# ------------------------------------------------ Proposition 4.2's (ε, δ)
KL_EPS, KL_DELTA = 0.3, 0.1


def _kl_instances():
    """name → (dnf, the ``auto`` thresholds that send it to step 5).

    ``hard`` is a :mod:`repro.generators.hard` bipartite 2-DNF that the
    default thresholds would solve exactly, so ``auto`` runs with step 3
    off and an 8-expansion enclosure: L = 0.586 against p = 0.600, the
    near-tight case where the budget shrinks most (M/L ≈ 2.2, |F| = 14);
    ``circulant`` has ``sampled_conf``'s shape and reaches step 5 under
    the default thresholds (M/L ≈ 5.0, |F| = 24).
    """
    return {
        "hard": (
            bipartite_2dnf(6, 6, 0.5, var_probability=Fraction(3, 10), rng=0),
            {"max_exact_size": 0, "bounds_budget": 8},
        ),
        "circulant": (circulant_2dnf(8, rng=1), {}),
    }


@pytest.mark.slow
@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("strategy", ["karp-luby", "auto"])
@pytest.mark.parametrize("instance", ["hard", "circulant"])
def test_karp_luby_relative_error_stays_within_delta(instance, strategy, backend):
    """Proposition 4.2: Pr[|p̂ − p| ≥ ε·p] ≤ δ, for the paper's budget and auto's.

    300 seeded runs against the exact-decomposition truth.  ``karp-luby``
    spends m = ⌈3·|F|·ln(2/δ)/ε²⌉ trials; ``auto`` spends the same with
    |F| replaced by M / max(L, max p_f) and clips into its enclosure.
    """
    replications = 300
    dnf, thresholds = _kl_instances()[instance]
    truth = probability_by_decomposition(dnf)
    if strategy == "auto":
        sampler = AutoStrategy(KL_EPS, KL_DELTA, backend=backend, **thresholds)
    else:
        sampler = KarpLuby(KL_EPS, KL_DELTA, backend=backend)
    misses = 0
    for seed in range(replications):
        report = sampler.compute(dnf, random.Random(seed))
        assert report.method == "karp-luby" and report.samples > 0
        if strategy == "auto":
            assert report.lower <= truth <= report.upper
            assert report.lower <= report.value <= report.upper
        misses += abs(report.value / truth - 1) > KL_EPS
    tolerance = 3 * math.sqrt(KL_DELTA * (1 - KL_DELTA) / replications)
    assert misses / replications <= KL_DELTA + tolerance, misses


NAIVE_EPS, NAIVE_DELTA = 0.05, 0.1


@pytest.mark.slow
@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("batched", [False, True], ids=["compute", "compute_batch"])
def test_naive_mc_additive_error_stays_within_delta(batched, backend):
    """The ``naive-mc`` baseline's guarantee: Pr[|p̂ − p| > ε] ≤ δ, additive.

    300 seeded runs over the six tuples of ``_contested_selection_db``
    (repair-key groups and the K₃,₃ candidates, one W), Hoeffding's
    m = ⌈ln(2/δ)/(2ε²)⌉ worlds per estimate.  ``compute`` draws each
    tuple its own worlds; ``compute_batch`` weighs every tuple against
    one shared block, so the estimates are correlated across tuples
    and the guarantee is checked marginally, per tuple.
    """
    replications = 300
    db = _contested_selection_db()
    _rows, dnfs = UEvaluator(db).lineage(db.relation("G"))
    truths = [probability_by_decomposition(dnf) for dnf in dnfs]
    sampler = NaiveMonteCarlo(NAIVE_EPS, NAIVE_DELTA, backend=backend)
    misses = [0] * len(dnfs)
    for seed in range(replications):
        rng = random.Random(seed)
        if batched:
            reports = sampler.compute_batch(dnfs, rng)
        else:
            reports = [sampler.compute(dnf, rng) for dnf in dnfs]
        for i, (report, truth) in enumerate(zip(reports, truths)):
            assert report.method == "naive-mc" and report.samples > 0
            misses[i] += abs(report.value - truth) > NAIVE_EPS
    tolerance = 3 * math.sqrt(NAIVE_DELTA * (1 - NAIVE_DELTA) / replications)
    for i, count in enumerate(misses):
        assert count / replications <= NAIVE_DELTA + tolerance, (i, count)


# ----------------------------------------------------- Lemma 5.1 soundness
def _random_dnf(rng: random.Random) -> Dnf:
    """A small DNF over multi-valued variables with rational weights."""
    w = VariableTable()
    n_vars = rng.randint(2, 7)
    for v in range(n_vars):
        cuts = sorted(rng.sample(range(1, 20), rng.randint(1, 3)))
        edges = [0, *cuts, 20]
        w.add(("v", v), {k: Fraction(b - a, 20) for k, (a, b) in enumerate(zip(edges, edges[1:]))})
    clauses = []
    for _ in range(rng.randint(1, 9)):
        chosen = rng.sample(range(n_vars), rng.randint(1, min(3, n_vars)))
        clauses.append(
            Condition({("v", v): rng.randrange(len(w.distribution(("v", v)))) for v in chosen})
        )
    return Dnf(clauses, w)


def _enclosure_instances(seeds):
    """Per seed: a random DNF, a ``hard.py`` bipartite 2-DNF, a circulant one."""
    for seed in seeds:
        rng = random.Random(seed)
        yield _random_dnf(rng)
        yield bipartite_2dnf(
            rng.randint(2, 6),
            rng.randint(2, 6),
            rng.uniform(0.3, 0.8),
            var_probability=Fraction(rng.randint(1, 9), 10),
            rng=rng,
        )
        if seed % 4 == 0:
            yield circulant_2dnf(8, rng=seed)


def _assert_enclosures_sound(seeds) -> None:
    """Lemma 5.1's premise: ``lower ≤ exact ≤ upper`` at budgets 0 and default."""
    for dnf in _enclosure_instances(seeds):
        exact = probability_by_decomposition(dnf)
        for budget in (0, DEFAULT_BOUND_BUDGET):
            interval = dissociation_interval(dnf, budget)
            assert interval.lower <= exact <= interval.upper, (dnf.members, budget)


def test_enclosures_contain_the_exact_confidence():
    """The enclosure-sized budget is sound only while L ≤ p: a seeded sweep."""
    _assert_enclosures_sound(range(40))


@pytest.mark.slow
def test_enclosures_contain_the_exact_confidence_wide():
    """The same sweep over a thousand more seeds."""
    _assert_enclosures_sound(range(40, 1040))


# ------------------------------------------------------- top-k racing's set
TOPK_EPS, TOPK_DELTA = 0.2, 0.1
TOPK_KS = (1, 3, 4)


def _topk_instance():
    """Rows, DNFs and exact confidences: four circulant 2-DNFs plus two groups.

    Each :func:`~repro.generators.hard.circulant_2dnf` is conjoined with a
    private variable z that places its confidence at 0.80, 0.50, 0.30 or
    0.18; the two repair-key groups hold two of four alternatives (0.62
    and 0.12, mutually exclusive clauses, so their enclosures are points).
    """
    w = VariableTable()
    dnfs = []
    for t, target in enumerate((0.80, 0.50, 0.30, 0.18)):
        base = circulant_2dnf(8, rng=t, w=w, tag=("c", t))
        p_z = Fraction(target).limit_denominator(1000) / probability_by_decomposition(base)
        w.add(("z", t), {1: p_z, 0: 1 - p_z})
        dnfs.append(Dnf([Condition({**dict(c.items()), ("z", t): 1}) for c in base.members], w))
    for g, alternatives in enumerate(((30, 32, 20, 18), (5, 7, 40, 48))):
        w.add(("rk", g), {v: Fraction(a, 100) for v, a in enumerate(alternatives)})
        dnfs.append(Dnf([Condition({("rk", g): 0}), Condition({("rk", g): 1})], w))
    rows = [(i,) for i in range(len(dnfs))]
    return rows, dnfs, [probability_by_decomposition(dnf) for dnf in dnfs]


@pytest.mark.slow
@pytest.mark.parametrize("bounds_budget", [0, DEFAULT_BOUND_BUDGET])
def test_race_topk_returns_the_true_top_k(bounds_budget):
    """``race_topk``: each estimate within its ε w.p. ≥ 1 − δ, and the right set.

    240 seeded races per k on the default trial backend (the pure-Python
    one takes minutes here).  Stage 1 admits and eliminates on the
    dissociation enclosures; at budget 0 they are loose and the race
    samples, at the default budget they decide every candidate.  A
    sampled entry's ε is the one its trial count justifies (the target ε
    once it ran its full Proposition 4.2 budget).  Where the true k-th
    and (k+1)-th confidences are farther apart than their ε bands, the
    returned set is the true top k except with probability at most δ per
    sampled candidate (the union bound).
    """
    replications = 240
    rows, dnfs, truths = _topk_instance()
    ranked = sorted(range(len(rows)), key=lambda i: -truths[i])
    misses: dict[int, list[int]] = {i: [0, 0] for i in range(len(rows))}  # [misses, seen]
    sampled_any = False
    for k in TOPK_KS:
        kth, next_ = truths[ranked[k - 1]], truths[ranked[k]]
        clears = kth * (1 - TOPK_EPS) > next_ * (1 + TOPK_EPS)
        wrong, allowance = 0, 0.0
        for seed in range(replications):
            report = race_topk(
                rows, dnfs, k, TOPK_EPS, TOPK_DELTA, rng=seed, bounds_budget=bounds_budget
            )
            for entry in report.entries:
                if entry.trials:
                    sampled_any = True
                    i = entry.row[0]
                    size = dnfs[i].size
                    eps_i = math.sqrt(3 * size * math.log(2 / TOPK_DELTA) / entry.trials)
                    misses[i][0] += abs(entry.value / truths[i] - 1) > eps_i
                    misses[i][1] += 1
            wrong += {row[0] for row in report.rows} != set(ranked[:k])
            allowance += min(1.0, TOPK_DELTA * report.sampled)
        if clears:
            allowance /= replications
            tolerance = 3 * math.sqrt(allowance * (1 - allowance) / replications)
            assert wrong / replications <= allowance + tolerance, (k, wrong)
    assert any(
        truths[ranked[k - 1]] * (1 - TOPK_EPS) > truths[ranked[k]] * (1 + TOPK_EPS)
        for k in TOPK_KS
    )
    assert sampled_any == (bounds_budget == 0)
    for i, (count, seen) in misses.items():
        if seen:
            tolerance = 3 * math.sqrt(TOPK_DELTA * (1 - TOPK_DELTA) / seen)
            assert count / seen <= TOPK_DELTA + tolerance, (i, count, seen)
