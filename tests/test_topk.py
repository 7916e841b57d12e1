"""Top-k confidence-interval racing: the driver, the facade, the server.

The racer's contracts under test:

* stage-1 bound pruning decides single-clause/degenerate candidates with
  **zero** trials;
* sampled races return the right answer *set* on workloads whose truth
  gaps exceed the (ε, δ) resolution, spending less than the full
  ``confidence_all`` budget;
* transcripts are bit-identical across worker counts {serial, 1, 2, 4};
* the facade memoizes reports (volatile iff trials were drawn), explain
  carries the ``topk[k]·bounds-pruned[m/n]`` annotation, and the server
  round-trips reports losslessly with typed errors for bad parameters.
"""

from __future__ import annotations

import asyncio
import math
from fractions import Fraction

import pytest

import repro
from repro.confidence import Dnf, probability_by_decomposition
from repro.core.topk import TopKReport, race_topk
from repro.engine.probdb import ProbDB
from repro.server.protocol import ProtocolError, QueryError
from repro.urel.conditions import Condition
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.parallel import ShardExecutor


def _single_var_db(probs):
    """One relation; row i is guarded by its own variable at probs[i]."""
    w = VariableTable()
    rows = set()
    for i, p in enumerate(probs):
        w.add(("x", i), {1: p, 0: 1 - p})
        rows.add((Condition({("x", i): 1}), (i,)))
    return UDatabase({"R": URelation(("id",), frozenset(rows))}, w, set())


def _pair_race(targets):
    """One complete-bipartite 2-DNF candidate per target, well separated.

    Candidate i is the K₃,₃ disjunction ⋁ (xₐ ∧ y_b) at a variable
    probability q tuned so the exact truth (1−(1−q)³)² hits the target.
    Nine pairwise-overlapping clauses defeat the budget-0 pairwise
    bounds (two-clause components would be *exact* by inclusion–
    exclusion), so ``bounds_budget=0`` forces real sampling — while the
    exact truth stays computable for the oracle.
    """
    from repro.generators.hard import bipartite_2dnf

    rows, dnfs = [], []
    for i, target in enumerate(targets):
        q = 1.0 - (1.0 - math.sqrt(target)) ** (1.0 / 3.0)
        rows.append((i,))
        dnfs.append(bipartite_2dnf(3, 3, 1.0, q, rng=100 + i))
    return rows, dnfs


# Truths spaced by factor > 1.5 = (1+ε)/(1−ε) at ε = 0.2: even at the
# full per-candidate budget the Lemma 5.1 intervals cannot overlap, so
# the race must separate every boundary.
_SEPARATED = [0.08, 0.85, 0.2, 0.45]
_EPS, _DELTA = 0.2, 0.05


class TestRaceTopK:
    def test_validation(self):
        rows, dnfs = _pair_race([0.3, 0.6])
        with pytest.raises(ValueError):
            race_topk(rows, dnfs, 0, _EPS, _DELTA)
        with pytest.raises(ValueError):
            race_topk(rows, dnfs, 1, 1.0, _DELTA)
        with pytest.raises(ValueError):
            race_topk(rows, dnfs, 1, _EPS, 0.0)
        with pytest.raises(ValueError):
            race_topk(rows[:1], dnfs, 1, _EPS, _DELTA)

    def test_empty_race(self):
        report = race_topk([], [], 3, _EPS, _DELTA)
        assert report.entries == () and report.candidates == 0

    def test_bounds_decide_single_clause_candidates_without_trials(self):
        """Single-clause DNFs have exact enclosures: zero trials, error 0."""
        w = VariableTable()
        rows, dnfs = [], []
        for i, p in enumerate([0.9, 0.5, 0.1, 0.7, 0.3]):
            w.add(("x", i), {1: p, 0: 1 - p})
            rows.append((i,))
            dnfs.append(Dnf([Condition({("x", i): 1})], w))
        report = race_topk(rows, dnfs, 2, _EPS, _DELTA, rng=11)
        assert report.rows == ((0,), (3,))
        assert report.total_trials == 0 and report.sampled == 0
        assert report.bounds_decided == len(rows)
        for entry in report.entries:
            assert entry.exact and entry.trials == 0 and entry.source == "bounds"
            assert entry.lower == entry.value == entry.upper

    def test_n_at_most_k_returns_everything_ranked(self):
        rows, dnfs = _pair_race([0.3, 0.7])
        report = race_topk(rows, dnfs, 5, _EPS, _DELTA, rng=3)
        assert report.rows == ((1,), (0,))
        assert report.total_trials == 0  # nothing to separate, nothing drawn

    def test_sampled_race_finds_the_true_set_and_saves_trials(self):
        rows, dnfs = _pair_race(_SEPARATED)
        truth = sorted(
            range(len(rows)),
            key=lambda i: -probability_by_decomposition(dnfs[i]),
        )[:2]
        # bounds_budget=0: the default budget Shannon-expands these tiny
        # DNFs to exact enclosures, which would decide the race for free.
        report = race_topk(
            rows, dnfs, 2, _EPS, _DELTA, rng=17, bounds_budget=0
        )
        assert set(report.rows) == {(i,) for i in truth}
        assert report.sampled > 0 and report.total_trials > 0
        assert report.full_trials > 0
        # Racing must beat the uniform budget on a separated workload.
        assert report.total_trials < report.full_trials
        for entry in report.entries:
            assert entry.lower <= entry.value <= entry.upper

    @pytest.mark.parametrize("workers", [None, 1, 2, 4])
    def test_transcripts_bit_identical_across_workers(self, workers):
        """The determinism contract: serial and every worker count agree."""
        rows, dnfs = _pair_race(_SEPARATED)
        serial = race_topk(
            rows, dnfs, 2, _EPS, _DELTA, rng=29, bounds_budget=0
        )
        assert serial.total_trials > 0  # the contract is vacuous unsampled
        if workers is None:
            sharded = race_topk(
                rows, dnfs, 2, _EPS, _DELTA, rng=29, bounds_budget=0
            )
        else:
            with ShardExecutor(workers) as executor:
                sharded = race_topk(
                    rows, dnfs, 2, _EPS, _DELTA, rng=29,
                    executor=executor, bounds_budget=0,
                )
        assert sharded == serial  # frozen dataclasses: full bit-identity

    def test_forced_sampling_with_zero_bounds_budget(self):
        """bounds_budget=0 coarsens every enclosure: everything samples."""
        rows, dnfs = _pair_race(_SEPARATED)
        report = race_topk(
            rows, dnfs, 2, _EPS, _DELTA, rng=13, bounds_budget=0
        )
        assert report.sampled > 0 and report.total_trials > 0
        truth = sorted(
            range(len(rows)),
            key=lambda i: -probability_by_decomposition(dnfs[i]),
        )[:2]
        assert set(report.rows) == {(i,) for i in truth}


class TestProbDBTopK:
    def test_facade_and_result_method(self):
        db = ProbDB(_single_var_db([0.9, 0.7, 0.5, 0.3, 0.1]), rng=7)
        report = db.topk("R", 2)
        assert isinstance(report, TopKReport)
        assert report.rows == ((0,), (1,))
        assert report.entries[0].exact
        # EngineResult.topk delegates to the same memoized computation.
        assert db.query("R").topk(2) == report

    def test_session_transcripts_and_memo_agree_across_workers(self):
        """A session that omits ``workers`` races exactly like workers ∈
        {1, 2, 4} and leaves the same memo entries behind."""
        # One K₃,₃ 2-DNF per tuple (see _pair_race): budget-0 bounds
        # cannot decide them, so the race really samples.
        w = VariableTable()
        rows = []
        for t, target in enumerate(_SEPARATED):
            q = Fraction(1.0 - (1.0 - math.sqrt(target)) ** (1.0 / 3.0)).limit_denominator(64)
            for side in "xy":
                for i in range(3):
                    w.add((side, t, i), {1: q, 0: 1 - q})
            rows += [
                (Condition({("x", t, a): 1, ("y", t, b): 1}), (t,))
                for a in range(3)
                for b in range(3)
            ]
        relation = URelation.from_rows(("id",), rows)

        def run(workers):
            options = {} if workers is None else {"workers": workers}
            source = UDatabase({"R": relation}, w.copy(), set())
            with ProbDB(source, eps=_EPS, delta=_DELTA, rng=7, **options) as db:
                return db.topk("R", 2, bounds_budget=0), set(db._cache._data)

        results = [run(workers) for workers in (None, 1, 2, 4)]
        assert results[0][0].total_trials > 0  # vacuous unless it samples
        assert all(result == results[0] for result in results)

    def test_k_validation(self):
        db = ProbDB(_single_var_db([0.5, 0.4]), rng=1)
        for bad in (0, -3, True, 1.5, "2"):
            with pytest.raises(ValueError):
                db.topk("R", bad)

    def test_memoized_and_invalidated_by_version(self):
        db = ProbDB(_single_var_db([0.9, 0.7, 0.5]), rng=5)
        first = db.topk("R", 1)
        hits_before = db.cache_stats["hits"]
        assert db.topk("R", 1) is first  # memo hit returns the same object
        assert db.cache_stats["hits"] > hits_before
        assert db.topk("R", 2) is not first  # k is part of the key

    def test_exact_strategy_routes_to_batch_confidence(self):
        db = ProbDB(
            _single_var_db([0.9, 0.7, 0.5]), strategy="exact-decomposition", rng=5
        )
        report = db.topk("R", 2)
        assert report.rows == ((0,), (1,))
        assert all(e.exact and e.source == "exact" for e in report.entries)
        assert report.total_trials == 0

    def test_explain_topk_annotation(self):
        # One variable per row: the bare scan lifts (step 0 of the conf
        # seam), so there is no race and no enclosure census to report.
        db = ProbDB(_single_var_db([0.9, 0.7, 0.5]), rng=5)
        plan = db.explain_topk("R", 2)
        assert "topk[2]·extensional" in plan.text
        assert plan.chosen_methods() == {"extensional"}
        with pytest.raises(ValueError):
            db.explain_topk("R", 0)
        # The same tuples twice over (a union is not liftable) race as
        # before: every enclosure is a point.
        plan = db.explain_topk("union(R, R)", 2)
        assert "topk[2]" in plan.text
        assert "bounds-pruned[3/3]" in plan.text


class TestServerTopK:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_round_trip_and_typed_errors(self):
        async def scenario():
            server = repro.serve(
                _single_var_db([0.9, 0.7, 0.5, 0.3]), workers=1
            )
            client = repro.Client(server, tenant="t", wire=True)
            session = await client.open_session(seed=7)
            out = await session.topk("R", 2)
            assert out["k"] == 2 and out["candidates"] == 4
            assert [e["row"] for e in out["entries"]] == [(0,), (1,)]
            assert out["entries"][0]["exact"] is True
            # Typed protocol errors for malformed parameters.
            for params in (
                {"query": "R"},  # k missing
                {"query": "R", "k": 0},
                {"query": "R", "k": True},
                {"query": "R", "k": 2, "eps": "wide"},
                {"query": "R", "k": 2, "bounds_budget": "lots"},
            ):
                with pytest.raises(ProtocolError):
                    await client.call("topk", session=session.session_id, params=params)
            # Engine-level rejections cross as query-error.
            with pytest.raises(QueryError):
                await session.topk("R", 2, eps=1.5)
            await session.close()
            await server.aclose()

        self._run(scenario())

    def test_server_matches_direct_session(self):
        async def scenario():
            source = _single_var_db([0.9, 0.7, 0.5, 0.3])
            server = repro.serve(source, workers=1)
            client = repro.Client(server, tenant="t", wire=True)
            session = await client.open_session(seed=7)
            out = await session.topk("R", 2)
            await session.close()
            await server.aclose()
            return out

        out = self._run(scenario())
        direct = ProbDB(_single_var_db([0.9, 0.7, 0.5, 0.3]), rng=7).topk("R", 2)
        assert [e["row"] for e in out["entries"]] == list(direct.rows)
        assert [e["value"] for e in out["entries"]] == [
            e.value for e in direct.entries
        ]
