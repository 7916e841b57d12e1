"""E19 — the deterministic shard executor: speedup at bit-identical results.

PR 4 made the engine's fan-out points explicit (`repro.util.parallel`):
per-tuple confidence batches, Prop 4.2 trial budgets, and driver round
allocations all shard across a process pool, with the hard contract that
the shard *plan* and per-shard seeding never depend on the worker count.

Acceptance assertions:

* ``test_sharded_results_bit_identical_across_worker_counts`` — NEVER
  skipped: one seed, ``workers ∈ {1, 2, 4}``, identical
  ``confidence_all`` reports and identical one-shot Prop 4.2 estimates.
  This is the determinism contract the speedup claim rides on.
* ``test_sharded_speedup_with_4_workers`` — ≥2x wall-clock for
  ``workers=4`` over ``workers=1`` on a large ``confidence_all`` +
  Prop 4.2 workload.  Skipped (the speedup half only) on machines with
  fewer than 4 CPU cores, where the pool is pure oversubscription.

Tracked benchmarks (picked up by ``track.py``'s ``bench_*.py`` glob, so
they feed ``--quick`` CI snapshots and the baseline regression gate):
the same confidence_all workload at ``workers=1`` (the shard plan run
in process — what a session that omits ``workers`` runs too) and
``workers=4``; plus a sharded Prop 4.2 budget.  A regression in the
shard-merge plumbing shows up as a >2x drift of the ``workers=1`` entry
against its committed baseline.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction

import pytest

from repro.confidence.batch import batch_approximate_confidence
from repro.confidence.dnf import Dnf
from repro.engine.probdb import ProbDB
from repro.urel.conditions import Condition
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.parallel import ShardExecutor

WORKER_MATRIX = (1, 2, 4)


# ------------------------------------------------------------------ workload
def _sampled_db(n_tuples: int, n_vars: int = 12, clauses: int = 6, seed: int = 3):
    """Tuples with variable-sharing (non-read-once) DNFs, so the
    Karp–Luby strategy runs its full Prop 4.2 budget per tuple."""
    rng = random.Random(seed)
    w = VariableTable()
    for i in range(n_vars):
        w.add(("x", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})
    rows = []
    for t in range(n_tuples):
        for _ in range(clauses):
            cond = Condition(
                {("x", rng.randrange(n_vars)): rng.randint(0, 1) for _ in range(2)}
            )
            rows.append((cond, (t,)))
    db = UDatabase(w=w)
    db.set_relation("R", URelation.from_rows(("A",), rows))
    return db


def _session(workers, n_tuples, eps, backend=None, seed=11):
    return ProbDB(
        _sampled_db(n_tuples),
        strategy="karp-luby",
        eps=eps,
        delta=0.05,
        rng=seed,
        backend=backend,
        workers=workers,
        cache_size=0,  # time the computation, not the memo cache
    )


def _one_dnf(size: int = 16, n_vars: int = 10, seed: int = 9) -> Dnf:
    rng = random.Random(seed)
    w = VariableTable()
    for i in range(n_vars):
        w.add(("y", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})
    members = [
        Condition({("y", rng.randrange(n_vars)): rng.randint(0, 1) for _ in range(3)})
        for _ in range(size)
    ]
    return Dnf(members, w)


def _report_key(report):
    return (float(report.value), report.samples, report.method)


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ------------------------------------------------------------- acceptance
def test_sharded_results_bit_identical_across_worker_counts():
    """The determinism half — never skipped, on any machine."""
    results = {}
    for workers in WORKER_MATRIX:
        session = _session(workers, n_tuples=48, eps=0.4)
        with session:
            results[workers] = {
                row: _report_key(rep)
                for row, rep in session.confidence_all("R").items()
            }
    assert results[1] == results[2] == results[4]
    assert any(samples > 0 for _, samples, _ in results[1].values())

    dnf = _one_dnf()
    estimates = {
        workers: batch_approximate_confidence(
            dnf, 0.1, 0.05, rng=31, executor=ShardExecutor(workers)
        )
        for workers in WORKER_MATRIX
    }
    assert (
        (estimates[1].estimate, estimates[1].positives, estimates[1].samples)
        == (estimates[2].estimate, estimates[2].positives, estimates[2].samples)
        == (estimates[4].estimate, estimates[4].positives, estimates[4].samples)
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup needs >= 4 CPU cores (equality is asserted regardless, above)",
)
def test_sharded_speedup_with_4_workers():
    """The speedup half: ≥2x with 4 workers over the same plan at 1.

    The ``python`` trial backend pins a stable per-trial cost, so the
    measured ratio isolates the executor (the claim is about sharding,
    not about numpy).  Both sessions run the identical shard plan —
    the equality test above proves the answers match bit for bit.
    """
    n_tuples, eps = 64, 0.12  # ~10k python trials per tuple: seconds serial

    serial = _session(1, n_tuples, eps, backend="python")
    parallel = _session(4, n_tuples, eps, backend="python")
    with serial, parallel:
        parallel.confidence_all("R")  # fork + warm the pool outside the clock
        t_serial = _best_of(lambda: serial.confidence_all("R"), repeats=2)
        t_parallel = _best_of(lambda: parallel.confidence_all("R"), repeats=2)
    speedup = t_serial / t_parallel
    assert speedup >= 2.0, (
        f"4 workers only {speedup:.2f}x over workers=1 "
        f"({t_serial * 1e3:.0f}ms -> {t_parallel * 1e3:.0f}ms)"
    )


# ------------------------------------------------------------- tracked timings
@pytest.fixture(scope="module")
def tracked_sessions():
    sessions = {
        "w1": _session(1, n_tuples=32, eps=0.1),
        "w4": _session(4, n_tuples=32, eps=0.1),
    }
    yield sessions
    for session in sessions.values():
        session.close()


def _bench_confidence_all(benchmark, session, label):
    reports = benchmark(session.confidence_all, "R")
    benchmark.extra_info["workers"] = label
    benchmark.extra_info["tuples"] = len(reports)


def test_benchmark_confidence_all_sharded_serial(benchmark, tracked_sessions):
    """The shard plan executed in process: merge overhead without a pool."""
    _bench_confidence_all(benchmark, tracked_sessions["w1"], 1)


def test_benchmark_confidence_all_sharded_w4(benchmark, tracked_sessions):
    """Four workers (oversubscribed on small CI machines — that's fine,
    the entry tracks dispatch overhead there, speedup on real cores)."""
    tracked_sessions["w4"].confidence_all("R")  # fork outside the clock
    _bench_confidence_all(benchmark, tracked_sessions["w4"], 4)


def test_benchmark_prop42_budget_sharded_serial(benchmark):
    """One big DNF's whole (ε, δ) budget through the block-merge path."""
    dnf = _one_dnf()
    executor = ShardExecutor(1)
    rng = random.Random(17)

    def run():
        return batch_approximate_confidence(dnf, 0.08, 0.05, rng, executor=executor)

    estimate = benchmark(run)
    benchmark.extra_info["samples"] = estimate.samples
