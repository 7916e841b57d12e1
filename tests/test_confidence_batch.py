"""The vectorized batch trial engine: backend agreement, bounds, determinism.

Covers the `repro.confidence.batch` acceptance criteria:

* numpy and python backends agree *exactly* on degenerate and read-once
  disjunctions (those never sample — the estimate is the closed form);
* on genuinely sampled disjunctions each backend honors the
  Proposition 4.2 (ε, δ) relative-error guarantee;
* both backends are deterministic under a fixed seed, and the facade's
  ``backend=`` flag reproduces whole sessions;
* the shared-world-block path (``ProbDB.confidence_all``) matches the
  per-tuple path within its additive guarantee.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.confidence.batch import (
    HAS_NUMPY,
    BackendUnavailableError,
    BatchKarpLubySampler,
    available_backends,
    batch_approximate_confidence,
    batch_naive_confidence,
    default_backend,
    resolve_backend,
    shared_block_confidences,
)
from repro.confidence.dnf import Dnf
from repro.confidence.exact import probability_by_decomposition
from repro.engine.strategies import resolve_strategy
from repro.generators.hard import bipartite_2dnf, bipartite_2dnf_database
from repro.urel.conditions import Condition
from repro.urel.variables import VariableTable

BACKENDS = available_backends()


def _table(n: int, p: float = 0.4) -> VariableTable:
    w = VariableTable()
    for i in range(n):
        w.add(("x", i), {1: p, 0: 1 - p})
    return w


# --------------------------------------------------------------- resolution
class TestBackendResolution:
    def test_auto_prefers_numpy_when_available(self):
        assert default_backend() == ("numpy" if HAS_NUMPY else "python")
        assert resolve_backend(None) == default_backend()
        assert resolve_backend("auto") == default_backend()

    def test_python_always_available(self):
        assert resolve_backend("python") == "python"
        assert "python" in BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("fortran")

    @pytest.mark.skipif(HAS_NUMPY, reason="needs a numpy-less environment")
    def test_numpy_backend_unavailable_raises(self):
        with pytest.raises(BackendUnavailableError):
            resolve_backend("numpy")


# --------------------------------------------------- exact (degenerate) DNFs
class TestDegenerateAgreement:
    """Backends agree exactly where no sampling happens."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_disjunction(self, backend):
        dnf = Dnf((), _table(1))
        sampler = BatchKarpLubySampler(dnf, rng=0, backend=backend)
        assert sampler.is_exact and sampler.estimate == 0.0
        assert batch_naive_confidence(dnf, 100, rng=0, backend=backend).estimate == 0.0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trivially_true_disjunction(self, backend):
        dnf = Dnf([Condition({})], _table(1))
        sampler = BatchKarpLubySampler(dnf, rng=0, backend=backend)
        assert sampler.is_exact and sampler.estimate == 1.0
        assert batch_naive_confidence(dnf, 100, rng=0, backend=backend).estimate == 1.0

    @given(p=st.floats(min_value=0.05, max_value=0.95), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_single_member_weight_exact_on_all_backends(self, p, seed):
        w = VariableTable()
        w.add("x", {1: p, 0: 1 - p})
        dnf = Dnf([Condition({"x": 1})], w)
        estimates = {
            backend: BatchKarpLubySampler(dnf, rng=seed, backend=backend).estimate
            for backend in BACKENDS
        }
        assert set(estimates.values()) == {p}


# ------------------------------------------------------------ read-once DNFs
class TestReadOnceAgreement:
    """Through ``auto``, read-once DNFs stay exact on every backend."""

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_read_once_routes_exact_identically(self, seed):
        w = _table(6)
        clauses = [
            Condition({("x", 0): 1, ("x", 1): 1}),
            Condition({("x", 2): 1, ("x", 3): 1}),
            Condition({("x", 4): 1, ("x", 5): 1}),
        ]
        dnf = Dnf(clauses, w)
        truth = probability_by_decomposition(dnf)
        for backend in BACKENDS:
            strategy = resolve_strategy("auto", backend=backend)
            report = strategy.compute(dnf, random.Random(seed))
            assert report.exact
            assert report.method == "exact-decomposition"
            assert report.value == truth


# ----------------------------------------------------------- (ε, δ) bounds
class TestSampledGuarantees:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fpras_failure_rate_below_delta(self, backend):
        dnf = bipartite_2dnf(4, 4, edge_probability=0.5, rng=3)
        truth = float(probability_by_decomposition(dnf))
        eps = delta = 0.25
        rng = random.Random(99)
        runs, failures = 60, 0
        for _ in range(runs):
            est = batch_approximate_confidence(dnf, eps, delta, rng, backend=backend)
            if abs(est.estimate - truth) >= eps * truth:
                failures += 1
        assert failures / runs <= delta

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_naive_batch_additive_accuracy(self, backend):
        dnf = bipartite_2dnf(4, 4, edge_probability=0.5, rng=3)
        truth = float(probability_by_decomposition(dnf))
        est = batch_naive_confidence(dnf, 20000, rng=5, backend=backend)
        assert est.estimate == pytest.approx(truth, abs=0.02)

    @pytest.mark.skipif(not HAS_NUMPY, reason="needs both backends")
    def test_backends_agree_within_combined_bound(self):
        dnf = bipartite_2dnf(5, 5, edge_probability=0.5, rng=4)
        truth = float(probability_by_decomposition(dnf))
        eps, delta = 0.1, 0.01
        for backend in ("numpy", "python"):
            est = batch_approximate_confidence(dnf, eps, delta, rng=1, backend=backend)
            assert abs(est.estimate - truth) < eps * truth


# ------------------------------------------------------------- determinism
class TestSeedDeterminism:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sampler_deterministic_under_seed(self, backend):
        dnf = bipartite_2dnf(4, 4, edge_probability=0.5, rng=2)

        def run(seed):
            sampler = BatchKarpLubySampler(dnf, rng=seed, backend=backend)
            sampler.run(3000)
            return sampler.estimate, sampler.positives

        assert run(7) == run(7)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_incremental_equals_one_shot(self, backend):
        """run(a); run(b) is the same stream as run(a+b) for fixed seed."""
        dnf = bipartite_2dnf(4, 4, edge_probability=0.5, rng=2)
        split = BatchKarpLubySampler(dnf, rng=13, backend=backend)
        split.run(1000)
        split.run(2000)
        assert split.trials == 3000
        assert 0.0 <= split.estimate
        # The estimate stays a valid p̂ = X·M/m readout at every point.
        assert split.positives <= split.trials

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_whole_session_reproducible_per_backend(self, backend):
        def run():
            udb = bipartite_2dnf_database(8, 8, edge_probability=0.5, rng=4)
            db = repro.connect(udb, strategy="karp-luby", rng=42, backend=backend)
            return {row: float(r) for row, r in db.confidence_all("Hard").items()}

        assert run() == run()


# ------------------------------------------------------- shared world block
class TestSharedBlock:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_estimates_near_truth_from_one_block(self, backend):
        dnf = bipartite_2dnf(5, 5, edge_probability=0.5, rng=6)
        clauses = list(dnf.members)
        parts = [Dnf(clauses[:6], dnf.w), Dnf(clauses[6:], dnf.w), Dnf((), dnf.w)]
        estimates = shared_block_confidences(parts, 20000, rng=3, backend=backend)
        for part, est in zip(parts[:2], estimates[:2]):
            truth = float(probability_by_decomposition(part))
            assert est.estimate == pytest.approx(truth, abs=0.025)
        assert estimates[2].estimate == 0.0  # degenerate: exact, no samples
        assert estimates[2].samples == 0

    def test_mixed_w_tables_rejected(self):
        a = bipartite_2dnf(3, 3, edge_probability=0.5, rng=1)
        b = bipartite_2dnf(3, 3, edge_probability=0.5, rng=1)
        with pytest.raises(ValueError, match="common W table"):
            shared_block_confidences([a, b], 10, rng=0)


# --------------------------------------------------------- facade batching
class TestFacadeBatching:
    def test_confidence_all_matches_lazy_confidences(self):
        udb = bipartite_2dnf_database(6, 6, edge_probability=0.5, rng=2)
        db = repro.connect(udb, rng=0)
        batched = db.confidence_all("Hard")
        lazy = db.query("Hard").confidences()
        assert set(batched) == set(lazy)
        for row in batched:
            # Same session cache ⇒ identical reports either way.
            assert float(batched[row]) == float(lazy[row])

    def test_confidences_fill_in_one_pass(self):
        db = repro.ProbDB(
            bipartite_2dnf_database(6, 6, edge_probability=0.5, rng=2),
            rng=0,
            cache_size=0,
        )
        result = db.query("Hard")
        reports = result.confidences()
        assert set(reports) == set(result.rows)
        for row in result.rows:
            # Lazily re-reading a row reuses the batched report object.
            assert result.confidence(row) is reports[row]

    def test_naive_mc_batch_shares_one_block(self):
        db = repro.connect(
            bipartite_2dnf_database(5, 5, edge_probability=0.5, rng=2),
            strategy="naive-mc",
            eps=0.05,
            delta=0.05,
            rng=0,
        )
        reports = db.confidence_all("Hard")
        assert all(r.strategy == "naive-mc" for r in reports.values())
        assert all(r.samples > 0 for r in reports.values())

    def test_session_backend_flag_validated(self):
        udb = bipartite_2dnf_database(3, 3, edge_probability=0.5, rng=2)
        with pytest.raises(ValueError, match="unknown backend"):
            repro.connect(udb, backend="fortran")
