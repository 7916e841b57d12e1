"""E20 — the sharded columnar algebra: speedup at bit-identical relations.

PR 5 extends the deterministic shard executor to the relational layer:
the columnar product/join pair merges cut their (already bounded) block
schedule into contiguous shards — a plan that is a function of the
operand row counts only — run the shards on the worker pool, concatenate
survivors in shard order, and run the dedup lexsort once on the merged
result.

Acceptance assertions:

* ``test_sharded_algebra_bit_identical_across_worker_counts`` — NEVER
  skipped: the big join/product pipeline produces identical relations
  at ``workers ∈ {omitted, 1, 2, 4}`` (a session that omits
  ``workers`` runs the same plan on the default serial executor).
* ``test_sharded_algebra_speedup_with_4_workers`` — ≥1.8x wall-clock for
  ``workers=4`` over ``workers=1`` on the big pipeline.  Skipped (the
  speedup half only) on machines with fewer than 4 CPU cores, where the
  pool is pure oversubscription.

Tracked benchmarks (picked up by ``track.py``'s ``bench_*.py`` glob, so
they feed ``--quick`` CI snapshots and the baseline regression gate):
a moderate join pipeline at ``workers=1`` (the shard plan run in
process), ``workers=4``, and a sharded product.  A regression in the shard-merge
plumbing shows up as a >2x drift of the ``workers=1`` entry against its
committed baseline.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction

import pytest

from repro.algebra.builder import rel
from repro.algebra.expressions import col, lit
from repro.engine.probdb import ProbDB
from repro.urel.conditions import Condition
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.backends import HAS_NUMPY
from repro.util.parallel import ShardExecutor

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="the sharded algebra is the columnar (numpy) engine"
)

WORKER_MATRIX = (1, 2, 4)
N_VARS = 6


# ------------------------------------------------------------------ workload
def _pipeline_db(n_r: int, n_s: int, seed: int = 3) -> UDatabase:
    """R(A,B), S(B,C) built for a pair-merge-bound pipeline.

    Conditions assign 4 of 6 shared variables, so most candidate pairs
    die in the vectorized consistency check: per-pair merge work (the
    parallel part) dominates, survivors — and with them the one final
    dedup lexsort (the serial part) — stay small.  Join keys ``B`` live
    in a small range so ⋈ emits many candidate pairs too.
    """
    rng = random.Random(seed)
    w = VariableTable()
    for i in range(N_VARS):
        w.add(("v", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})

    def condition() -> Condition:
        variables = rng.sample(range(N_VARS), 4)
        return Condition({("v", i): rng.randint(0, 1) for i in variables})

    def relation(cols: tuple[str, ...], n: int, tag: int) -> URelation:
        rows = [
            (condition(), (tag * 10_000_000 + i, rng.randrange(8)))
            for i in range(n)
        ]
        return URelation.from_rows(cols, rows)

    db = UDatabase(w=w)
    db.set_relation("R", relation(("A", "B"), n_r, 1))
    # S(B, C): the join key must be the first column to overlap R's B.
    rng2 = random.Random(seed + 1)
    s_rows = [
        (
            Condition(
                {("v", i): rng2.randint(0, 1) for i in rng2.sample(range(N_VARS), 4)}
            ),
            (rng2.randrange(8), 20_000_000 + i),
        )
        for i in range(n_s)
    ]
    db.set_relation("S", URelation.from_rows(("B", "C"), s_rows))
    return db


JOIN_PIPELINE = (
    rel("R").join(rel("S")).select(col("A").ne(col("C"))).project(["A", "C"])
)
PRODUCT_PIPELINE = rel("R").product(
    rel("S").rename({"B": "D", "C": "E"})
).select(col("B") >= lit(4))


def _session(db: UDatabase, workers) -> ProbDB:
    return ProbDB(
        db,
        strategy="exact-decomposition",
        rng=11,
        backend="numpy",
        workers=workers,
        cache_size=0,  # time the algebra, not the memo cache
    )


def _best_of(fn, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ------------------------------------------------------------- acceptance
@needs_numpy
def test_sharded_algebra_bit_identical_across_worker_counts():
    """The determinism half — never skipped, on any machine.

    The pair-merge shard plan is a function of row counts only and the
    shard kernels run unchanged in process or on a worker, so every
    worker count — and a session that omits ``workers`` — must produce
    the same relation, not just statistically equivalent ones.
    """
    results = {}
    for workers in (None,) + WORKER_MATRIX:
        session = _session(_pipeline_db(400, 300), workers)
        with session:
            results[workers] = {
                name: session.query(q).relation
                for name, q in (("join", JOIN_PIPELINE), ("product", PRODUCT_PIPELINE))
            }
    reference = results[None]
    for workers in WORKER_MATRIX:
        assert results[workers] == reference, f"workers={workers} diverged"
    assert any(len(r.rows) > 0 for r in reference.values())


@needs_numpy
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup needs >= 4 CPU cores (equality is asserted regardless, above)",
)
def test_sharded_algebra_speedup_with_4_workers():
    """The speedup half: ≥1.8x with 4 workers over the same plan at 1.

    Sized so the product emits millions of candidate pairs (the sharded
    part) while conditions kill most survivors (keeping the one serial
    dedup small).  Both sessions run the identical shard plan — the
    equality test above proves the answers match bit for bit.
    """
    db = _pipeline_db(2500, 2000)  # 5M product pairs, ~600k join candidates

    def run_pipeline(session: ProbDB) -> None:
        session.query(PRODUCT_PIPELINE)
        session.query(JOIN_PIPELINE)

    serial = _session(db, 1)
    parallel = _session(db, 4)
    with serial, parallel:
        run_pipeline(parallel)  # fork + warm the pool outside the clock
        run_pipeline(serial)  # warm encodings/codecs the same way
        t_serial = _best_of(lambda: run_pipeline(serial))
        t_parallel = _best_of(lambda: run_pipeline(parallel))
    speedup = t_serial / t_parallel
    assert speedup >= 1.8, (
        f"4 workers only {speedup:.2f}x over workers=1 "
        f"({t_serial * 1e3:.0f}ms -> {t_parallel * 1e3:.0f}ms)"
    )


# ------------------------------------------------------------- tracked timings
@pytest.fixture(scope="module")
def tracked_sessions():
    if not HAS_NUMPY:
        pytest.skip("the sharded algebra is the columnar (numpy) engine")
    db = _pipeline_db(600, 500)  # 300k product pairs: CI-sized
    sessions = {
        "w1": _session(db, 1),
        "w4": _session(db, 4),
    }
    yield sessions
    for session in sessions.values():
        session.close()


def _bench_pipeline(benchmark, session, q, label):
    result = benchmark(lambda: session.query(q).relation)
    benchmark.extra_info["workers"] = label
    benchmark.extra_info["rows"] = len(result.rows)


def test_benchmark_join_pipeline_sharded_serial(benchmark, tracked_sessions):
    """The shard plan executed in process: merge overhead without a pool."""
    _bench_pipeline(benchmark, tracked_sessions["w1"], JOIN_PIPELINE, 1)


def test_benchmark_join_pipeline_sharded_w4(benchmark, tracked_sessions):
    """Four workers (oversubscribed on small CI machines — that's fine,
    the entry tracks dispatch overhead there, speedup on real cores)."""
    tracked_sessions["w4"].query(JOIN_PIPELINE)  # fork outside the clock
    _bench_pipeline(benchmark, tracked_sessions["w4"], JOIN_PIPELINE, 4)


def test_benchmark_product_pipeline_sharded_serial(benchmark, tracked_sessions):
    """The all-pairs (product) shard path, serial plan."""
    _bench_pipeline(benchmark, tracked_sessions["w1"], PRODUCT_PIPELINE, 1)


def test_benchmark_wide_approx_select_sharded_serial(benchmark):
    """The candidate-parallel σ̂ regime (20 candidates), serial plan."""
    rng = random.Random(23)
    w = VariableTable()
    for i in range(8):
        w.add(("x", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})
    rows = []
    for a in range(20):
        for _ in range(4):
            cond = Condition(
                {("x", rng.randrange(8)): rng.randint(0, 1) for _ in range(2)}
            )
            rows.append((cond, (a,)))
    db = UDatabase(w=w)
    db.set_relation("R", URelation.from_rows(("A",), rows))
    session = ProbDB(
        db,
        strategy="exact-decomposition",
        rng=9,
        backend="numpy" if HAS_NUMPY else "python",
        workers=ShardExecutor(1),
        cache_size=0,
    )
    q = rel("R").approx_select(col("P1") > lit(0.4), groups=[["A"]])

    def run():
        return session.evaluate_with_guarantee(q, delta=0.2, eps0=0.25)

    report = benchmark(run)
    benchmark.extra_info["decisions"] = len(report.decisions)
    session.close()
