"""The deterministic shard executor and session-safety fixes (PR 4).

Three claim families:

* **Determinism matrix** — the tentpole contract: with one seed, every
  sharded entry point (``confidence_all``, ``evaluate_with_guarantee``,
  the Karp–Luby samplers) returns *bit-identical* results for
  ``workers ∈ {1, 2, 4}`` and for every shard plan.  Item ``i`` of a
  fan-out list draws from its position, ``shard_seed(base, i)``; the plan
  only decides how the list is cut.
* **Session safety** — the memo cache is LRU (a hot entry survives
  churn) and lock-protected; the U-database/W-table version counters
  mutate atomically, exercised by a threaded stress test over one
  shared :class:`~repro.engine.probdb.ProbDB`.
* **Copy privacy** — ``connect(source, copy=True)`` copies get their
  own condition pool and W table, so two "private" sessions cannot
  mutate each other's interning state.
"""

from __future__ import annotations

import random
import threading
from fractions import Fraction

import numpy as np
import pytest

import repro
from repro.confidence.batch import (
    BatchKarpLubySampler,
    batch_approximate_confidence,
    shared_block_confidences,
)
from repro.confidence.dnf import Dnf
from repro.engine.cache import MemoCache
from repro.engine.probdb import ProbDB
from repro.generators.tpdb import tuple_independent
from repro.urel.conditions import Condition
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.parallel import (
    DEFAULT_MAX_SHARDS,
    DEFAULT_MIN_SHARD_TRIALS,
    ShardExecutor,
    plan_trials,
    shard_seed,
    spawn_shard_rng,
)
from repro.util.scope import run_scope

# None is the session (or library call) that omits ``workers``: it runs
# the same shard plan on the default serial executor.
WORKER_MATRIX = (None, 1, 2, 4)


def _all_equal(results) -> bool:
    return all(result == results[0] for result in results)


def _executor_for(workers: int | None) -> ShardExecutor | None:
    return None if workers is None else ShardExecutor(workers)


# ------------------------------------------------------------------ workloads
def _sampled_db(n_tuples: int = 48, n_vars: int = 10, clauses: int = 4, seed: int = 3):
    """Tuples whose DNFs share variables across clauses (not read-once),
    so the Karp–Luby strategy genuinely samples."""
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


def _one_dnf(size: int = 12, n_vars: int = 8, seed: int = 9) -> Dnf:
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
    return (float(report.value), report.samples, report.method, report.exact)


# ------------------------------------------------------------- executor units
class TestShardExecutor:
    def test_plan_is_worker_count_independent(self):
        for n in (0, 1, 7, 8, 16, 63, 64, 1000, 12345):
            plans = {w: ShardExecutor(w).plan_items(n) for w in (0, 1, 2, 4, 64)}
            assert len(set(map(tuple, plans.values()))) == 1

    def test_plan_items_partitions_exactly(self):
        ex = ShardExecutor(4)
        for n in (1, 7, 8, 9, 100, 129):
            shards = ex.plan_items(n)
            assert shards[0][0] == 0 and shards[-1][1] == n
            assert all(a < b for a, b in shards)
            assert [a for a, _ in shards[1:]] == [b for _, b in shards[:-1]]
            assert len(shards) <= ex.max_shards
            if len(shards) > 1:
                assert all(b - a >= ex.min_shard_items for a, b in shards)

    def test_plan_items_sizes_sum_and_cap(self):
        executor = ShardExecutor(2, min_shard_items=10, max_shards=7)
        shards = executor.plan_items(1000)
        assert len(shards) == 7
        assert shards[0][0] == 0 and shards[-1][1] == 1000
        sizes = [b - a for a, b in shards]
        assert sum(sizes) == 1000 and max(sizes) - min(sizes) <= 1

    def test_plan_trials_preserves_budget(self):
        for n in (1, 4095, 4096, 8191, 8192, 1_000_000):
            blocks = plan_trials(n)
            assert sum(blocks) == n
            assert len(blocks) <= DEFAULT_MAX_SHARDS
            if len(blocks) > 1:
                assert min(blocks) >= DEFAULT_MIN_SHARD_TRIALS
        assert not hasattr(ShardExecutor, "plan_trials")

    def test_shard_seed_pure_and_distinct(self):
        seeds = [shard_seed(123, i) for i in range(64)]
        assert seeds == [shard_seed(123, i) for i in range(64)]
        assert len(set(seeds)) == 64
        assert spawn_shard_rng(123, 5).random() == spawn_shard_rng(123, 5).random()

    def test_map_results_in_task_order(self):
        tasks = [(i,) for i in range(20)]
        serial = ShardExecutor(1).map(_square, tasks)
        with ShardExecutor(3) as parallel:
            assert parallel.map(_square, tasks) == serial
        assert serial == [i * i for i in range(20)]

    def test_map_after_close_stays_correct(self):
        ex = ShardExecutor(3)
        before = ex.map(_square, [(i,) for i in range(8)])
        ex.close()
        assert ex.map(_square, [(i,) for i in range(8)]) == before

    def test_task_exceptions_propagate(self):
        with ShardExecutor(2) as ex:
            with pytest.raises(ZeroDivisionError):
                ex.map(_reciprocal, [(1,), (0,)])

    def test_validate_flag_still_dry_runs_the_pickle(self):
        """``validate`` is accepted positionally and ignored: an
        unpicklable workload takes the serial path before submission,
        and the pool stays up."""
        with ShardExecutor(2) as ex:
            locks = [threading.Lock(), threading.Lock()]  # unpicklable args
            assert ex.map(_first_arg, [(lock,) for lock in locks], False) == locks
            assert ex.parallel
            assert ex.map(_square, [(2,), (3,)], False) == [4, 9]

    def test_unpicklable_tasks_fall_back_to_serial(self):
        # A lock cannot cross a process boundary; the map must quietly
        # run the (bit-identical) serial path instead of raising.
        with ShardExecutor(2) as ex:
            out = ex.map(_type_name, [(threading.Lock(),), (threading.Lock(),)])
        assert out == ["lock", "lock"]

    @pytest.mark.parametrize(
        "name,value",
        [
            ("workers", -1),
            ("workers", 2.5),
            ("workers", True),
            ("workers", "2"),
            ("max_shards", 2.5),
            ("max_shards", 0),
            ("min_shard_items", True),
            ("min_shard_items", None),
        ],
    )
    def test_rejects_bad_parameters_at_construction(self, name, value):
        with pytest.raises(ValueError, match=name):
            ShardExecutor(**{name: value})

    def test_accepts_any_integral_parameter(self):
        ex = ShardExecutor(workers=np.int64(2), max_shards=np.int64(8))
        assert (ex.workers, ex.max_shards) == (2, 8)
        assert type(ex.workers) is int and type(ex.max_shards) is int
        with repro.connect(UDatabase(), workers=np.int64(2)) as db:
            assert db.executor.workers == 2

    @pytest.mark.parametrize("workers", [2.5, True, "2", -1])
    def test_connect_and_serve_reject_bad_worker_counts(self, workers):
        with pytest.raises(ValueError, match="workers"):
            repro.connect(UDatabase(), workers=workers)
        with pytest.raises(ValueError, match="workers"):
            repro.serve(UDatabase(), workers=workers)


def _square(x):
    return x * x


def _reciprocal(x):
    return 1 / x


def _type_name(x):
    return type(x).__name__


def _first_arg(x):
    return x


# ------------------------------------------------------- determinism matrix
class TestDeterminismMatrix:
    """Same seed, workers ∈ {omitted, 1, 2, 4} ⇒ identical results."""

    @pytest.mark.parametrize("strategy", ["karp-luby", "auto", "naive-mc"])
    def test_confidence_all(self, strategy):
        def run(workers):
            session = repro.connect(
                _sampled_db(),
                strategy=strategy,
                eps=0.4,
                delta=0.2,
                rng=11,
                workers=workers,
            )
            with session:
                query = session.query("R")
                reports = {
                    row: _report_key(rep)
                    for row, rep in session.confidence_all("R").items()
                }
                # The memo entries too: every cell keys on the same plan.
                return sorted(query.rows), reports, set(session._cache._data)

        results = [run(w) for w in WORKER_MATRIX]
        assert _all_equal(results)
        # The workload must actually sample for the matrix to mean much.
        if strategy != "auto":
            assert any(samples > 0 for _, samples, _, _ in results[0][1].values())

    def test_evaluate_with_guarantee(self):
        from repro.algebra.builder import rel
        from repro.algebra.expressions import col, lit
        from repro.generators.coins import (
            coin_database,
            evidence_query,
            pick_coin_query,
            toss_query,
        )

        predicate = (col("P1") / col("P2")) <= lit(0.5)
        q = rel("T").approx_select(predicate, groups=[["CoinType"], []])

        def run(workers):
            session = repro.connect(
                coin_database(),
                strategy="exact-decomposition",
                rng=5,
                workers=workers,
            )
            with session:
                session.assign("R", pick_coin_query())
                session.assign("S", toss_query(2))
                session.assign("T", evidence_query(["H", "H"]))
                report = session.evaluate_with_guarantee(q, delta=0.05, eps0=0.05)
            return (
                sorted(map(repr, report.relation.rows)),
                report.rounds,
                sorted((repr(row), bound) for row, bound in report.tuple_bounds.items()),
            )

        results = [run(w) for w in WORKER_MATRIX]
        assert _all_equal(results)

    def test_karp_luby_sampler_outputs(self):
        dnf = _one_dnf()

        def run(workers):
            sampler = BatchKarpLubySampler(dnf, rng=21)
            with run_scope(executor=_executor_for(workers)):
                sampler.run(20_000)
            return (sampler.estimate, sampler.positives, sampler.trials)

        results = [run(w) for w in WORKER_MATRIX]
        assert _all_equal(results)
        assert results[0][2] == 20_000

    def test_one_shot_fpras_and_shared_block(self):
        dnf = _one_dnf()

        def fpras(workers):
            with run_scope(executor=_executor_for(workers)):
                est = batch_approximate_confidence(dnf, 0.2, 0.1, rng=31)
            return (est.estimate, est.positives, est.samples)

        def shared(workers):
            dnfs = [_one_dnf(seed=s) for s in (1, 1, 2)]
            # shared_block_confidences wants one common W table.
            w = dnfs[0].w
            dnfs = [Dnf(d.members, w) for d in dnfs[:1]] * 2 + [
                Dnf(_one_dnf(seed=1).members, w)
            ]
            with run_scope(executor=_executor_for(workers)):
                ests = shared_block_confidences(dnfs, 9000, rng=41)
            return [(e.estimate, e.positives, e.samples) for e in ests]

        assert _all_equal([fpras(w) for w in WORKER_MATRIX])
        assert _all_equal([shared(w) for w in WORKER_MATRIX])

    def test_single_tuple_confidence(self):
        """result.confidence(row) / tuple_confidence stays identical
        across worker counts (its one tuple's budget is drawn in process)."""

        def run(workers):
            session = repro.connect(
                _sampled_db(n_tuples=1),
                strategy="karp-luby",
                eps=0.3,
                delta=0.1,
                rng=13,
                workers=workers,
            )
            with session:
                relation = session.relation("R")
                return _report_key(session.tuple_confidence(relation, (0,)))

        results = [run(w) for w in WORKER_MATRIX]
        assert _all_equal(results)
        assert results[0][1] > 0  # genuinely sampled

    def test_aconf_operator_draws_each_tuple_from_its_position(self):
        """``aconf[ε, δ, P](R)`` is the Karp–Luby strategy's batch: tuple
        ``i`` runs under ``shard_seed(base, i)``, ``base`` one draw from
        the session stream, at every worker count."""
        eps, delta = 0.2, 0.1

        def run(workers):
            session = repro.connect(_sampled_db(n_tuples=3), rng=13, workers=workers)
            with session:
                result = session.query(f"aconf[{eps}, {delta}, P](R)")
                return sorted(result.relation.to_complete().rows)

        results = [run(w) for w in (None, 1, 2)]
        assert _all_equal(results)

        db = _sampled_db(n_tuples=3)
        base = random.Random(13).getrandbits(64)
        expected = []
        for i in range(3):
            dnf = Dnf.for_tuple(db.relation("R"), (i,), db.w)
            estimate = batch_approximate_confidence(
                dnf, eps, delta, rng=random.Random(shard_seed(base, i))
            )
            assert estimate.samples > 0  # genuinely sampled
            expected.append((i, estimate.estimate))
        assert results[0] == expected

    def test_workers_one_merges_like_many(self):
        """The block loop is the one block plan: a hand-merged per-block
        rerun reproduces the sampler exactly (trial-count weighting)."""
        dnf = _one_dnf()
        sampler = BatchKarpLubySampler(dnf, rng=77)
        with run_scope(executor=ShardExecutor(1, max_shards=1)):
            sampler.run(20_000)

        base = random.Random(77).getrandbits(64)
        from repro.confidence.batch import _karp_luby_trial_block

        positives = sum(
            _karp_luby_trial_block(sampler.dnf.encoded, count, shard_seed(base, i))
            for i, count in enumerate(plan_trials(20_000))
        )
        assert len(plan_trials(20_000)) > 1
        assert positives == sampler.positives


# ------------------------------------------------------- the shard plan contract
PLAN_MATRIX = [(w, a, b) for w in (1, 2) for a in (1, 3, 16) for b in (1, 2, 8)]


def _sigma_db(n_groups: int, clauses: int = 3, seed: int = 5) -> UDatabase:
    """One σ̂ candidate per group ``A``: three clauses over eight shared variables."""
    rng = random.Random(seed)
    w = VariableTable()
    for i in range(8):
        w.add(("v", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})
    rows = [
        (Condition({("v", rng.randrange(8)): rng.randint(0, 1) for _ in range(2)}), (g,))
        for g in range(n_groups)
        for _ in range(clauses)
    ]
    db = UDatabase(w=w)
    db.set_relation("R", URelation.from_rows(("A",), rows))
    return db


def _k33_db(targets=(0.08, 0.85, 0.2, 0.45, 0.3, 0.6, 0.5, 0.35, 0.7, 0.25, 0.4, 0.55)):
    """One K_{3,3} lineage per tuple, its confidence near ``targets[t]``:
    the enclosures leave the race something to sample."""
    w = VariableTable()
    rows = []
    for t, target in enumerate(targets):
        q = Fraction(1.0 - (1.0 - target**0.5) ** (1.0 / 3.0)).limit_denominator(64)
        for side in "xy":
            for i in range(3):
                w.add((side, t, i), {1: q, 0: 1 - q})
        rows += [
            (Condition({("x", t, a): 1, ("y", t, b): 1}), (t,))
            for a in range(3)
            for b in range(3)
        ]
    db = UDatabase(w=w)
    db.set_relation("R", URelation.from_rows(("A",), rows))
    return db


def _fan_out_transcript(workers) -> list:
    """The answers of every fan-out point, each on a fresh session seeded alike."""
    from repro.algebra.builder import rel
    from repro.algebra.expressions import col, lit
    from repro.confidence.strategies import AutoStrategy

    out = []
    sampling_auto = AutoStrategy(0.4, 0.2, max_exact_size=0, bounds_budget=0)
    for strategy in ("karp-luby", "naive-mc", sampling_auto):
        with repro.connect(
            _sampled_db(n_tuples=20), strategy=strategy, eps=0.4, delta=0.2, rng=11,
            workers=workers,
        ) as db:
            reports = db.confidence_all("R")
            out.append(sorted((row, _report_key(rep)) for row, rep in reports.items()))
    with repro.connect(_sampled_db(n_tuples=20), rng=13, workers=workers) as db:
        out.append(sorted(db.query("aconf[0.3, 0.2, P](R)").relation.to_complete().rows))
    q = rel("R").approx_select(col("P1") > lit(0.4), groups=[["A"]])
    for n_groups in (4, 20):
        with repro.connect(
            _sigma_db(n_groups), strategy="exact-decomposition", rng=9, workers=workers
        ) as db:
            rep = db.evaluate_with_guarantee(q, delta=0.2, eps0=0.25, bounds_budget=0)
            out.append((
                sorted(map(repr, rep.relation.rows)),
                rep.rounds,
                [(d.data, d.decision.value, d.decision.total_trials) for d in rep.decisions],
            ))
    with repro.connect(_k33_db(), eps=0.2, delta=0.05, rng=7, workers=workers) as db:
        rep = db.topk("R", 3, bounds_budget=0)
        out.append((
            [(e.row, e.value, e.trials, e.source) for e in rep.entries],
            rep.total_trials,
            rep.rounds,
        ))
    return out


@pytest.fixture(scope="module")
def default_plan_transcript():
    """The answers of a session that omits ``workers`` (the default plan)."""
    transcript = _fan_out_transcript(None)
    # Every fan-out point must sample for the comparison to mean much.
    for reports in transcript[:3]:
        assert any(samples > 0 for _row, (_v, samples, _m, _e) in reports)
    for _rows, _rounds, decisions in transcript[4:6]:
        assert any(trials > 0 for _data, _value, trials in decisions)
    assert transcript[6][1] > 0
    return transcript


@pytest.mark.parametrize(
    "workers,max_shards,min_shard_items",
    PLAN_MATRIX,
    ids=[f"w{w}-a{a}-b{b}" for w, a, b in PLAN_MATRIX],
)
def test_answers_ignore_the_worker_count_and_the_shard_plan(
    default_plan_transcript, workers, max_shards, min_shard_items
):
    """``confidence_all`` (karp-luby, naive-mc, a sampling ``auto``), an
    ``aconf`` query, the Theorem 6.7 driver on 4 and 20 σ̂ candidates and
    ``topk`` answer alike under every executor, however finely it cuts."""
    with ShardExecutor(workers, max_shards=max_shards, min_shard_items=min_shard_items) as ex:
        assert _fan_out_transcript(ex) == default_plan_transcript


# -------------------------------------------------------------- cache fixes
class TestMemoCacheLRU:
    def test_hot_key_survives_churn(self):
        """Regression: FIFO evicted a repeatedly-hit entry after maxsize
        one-off inserts; LRU must keep it."""
        cache = MemoCache(maxsize=8)
        cache.put("hot", "value")
        for i in range(100):
            cache.put(("one-off", i), i)
            assert cache.get("hot") == "value", f"hot entry evicted at insert {i}"

    def test_eviction_is_least_recently_used(self):
        cache = MemoCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_put_refreshes_existing_key(self):
        cache = MemoCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # update, not insert: nothing evicted, a refreshed
        assert len(cache) == 2
        cache.put("c", 3)  # b is now the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") == 10 and cache.get("c") == 3

    def test_stats_and_len_still_track(self):
        cache = MemoCache(maxsize=4)
        assert cache.get("missing") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        stats = cache.stats.as_dict()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["entries"] == 1
        assert stats["approx_bytes"] > 0  # byte accounting rides along (PR 6)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.as_dict()["approx_bytes"] == 0


class TestThreadSafety:
    def test_threaded_server_over_one_session(self):
        """Eight threads hammer one shared ProbDB — queries, assignments,
        confidence batches — against a tiny cache to force constant
        eviction.  No corruption, no exceptions, correct confidences."""
        rows = [((i, i % 5), Fraction(1, 3)) for i in range(40)]
        db = tuple_independent("R", ("A", "B"), rows)
        session = ProbDB(db, strategy="exact-decomposition", cache_size=8, rng=1)
        expected = {
            row: float(rep.value)
            for row, rep in session.confidence_all("R").items()
        }
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def worker(tid: int) -> None:
            try:
                barrier.wait()
                for i in range(25):
                    if tid % 2:
                        got = {
                            row: float(rep.value)
                            for row, rep in session.confidence_all("R").items()
                        }
                        assert got == expected
                    else:
                        session.assign(
                            f"T{tid}", f"select[A = {i % 7}](R)"
                        )
                        session.query(f"project[B](select[A = {tid}](R))")
            except BaseException as exc:  # noqa: BLE001 - collected for the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        # Counters stayed coherent under concurrent eviction.
        stats = session.cache_stats
        assert stats["entries"] <= 8
        assert len(session._cache) == stats["entries"]

    def test_value_codec_concurrent_assignment_stays_bijective(self):
        """Eight threads racing ValueCodec.code on overlapping unseen
        values: the miss path is NOT idempotent (two racers would hand
        two values one code), so it runs under the codec lock — every
        value must get exactly one code and decode back to itself."""
        from repro.urel.columnar import ValueCodec

        codec = ValueCodec()
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def worker(tid: int) -> None:
            try:
                barrier.wait()
                for i in range(400):
                    value = f"v{(i * 7 + tid * 13) % 500}"
                    code = codec.code(value)
                    assert codec.values[code] == value
            except BaseException as exc:  # noqa: BLE001 - collected for the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert len(codec.values) == len(codec.index) == len(set(codec.values))
        assert all(codec.index[v] == c for c, v in enumerate(codec.values))

    def test_urelation_lazy_cache_soak(self):
        """Eight threads hammer one shared relation's lazy caches.

        ``conditions_of`` (tuple index), ``natural_join`` on two
        different key sets (join indexes), ``variables()`` /
        ``variables_exceed`` and ``is_certain`` all build their caches
        lazily.  The idempotent-write assumption those builds used to
        lean on (benign last-write-wins under the GIL) is now an
        explicit lock (``repro.urel.urelation._CACHE_LOCK``), so this
        soak must hold on free-threaded builds too — CPython 3.13t can
        verify with ``sys._is_gil_enabled()`` returning False.
        """
        rng = random.Random(42)
        w = VariableTable()
        for i in range(6):
            w.add(("z", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})

        def build_rows():
            local = random.Random(7)
            rows = []
            for i in range(120):
                cond = Condition(
                    {("z", local.randrange(6)): local.randint(0, 1) for _ in range(2)}
                )
                rows.append((cond, (i % 10, i % 7)))
            return rows

        shared = URelation.from_rows(("A", "B"), build_rows())
        probe_a = URelation.from_rows(
            ("A", "C"), [(Condition({}), (rng.randrange(10), k)) for k in range(8)]
        )
        probe_b = URelation.from_rows(
            ("B", "C"), [(Condition({}), (rng.randrange(7), k)) for k in range(8)]
        )
        # Reference answers from a fresh, never-shared twin.
        reference = URelation.from_rows(("A", "B"), build_rows())
        expected = {
            "conds": {
                row: sorted(map(repr, reference.conditions_of(row)))
                for row in reference.possible_tuples().rows
            },
            "variables": reference.variables(),
            "join_a": reference.natural_join(probe_a),
            "join_b": reference.natural_join(probe_b),
        }
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def worker(tid: int) -> None:
            try:
                barrier.wait()
                for _ in range(15):
                    got = {
                        row: sorted(map(repr, shared.conditions_of(row)))
                        for row in shared.possible_tuples().rows
                    }
                    assert got == expected["conds"]
                    assert shared.variables() == expected["variables"]
                    assert shared.variables_exceed(3)
                    assert not shared.variables_exceed(6)
                    assert not shared.is_certain
                    assert shared.natural_join(probe_a) == expected["join_a"]
                    assert shared.natural_join(probe_b) == expected["join_b"]
            except BaseException as exc:  # noqa: BLE001 - collected for the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        # The published caches are single objects — every later reader
        # sees the same index, not a per-thread rebuild.
        assert shared.lineage_index() is shared.lineage_index()
        assert shared.variables() is shared.variables()

    def test_concurrent_repair_keys_extend_w_atomically(self):
        """Racing repair-key assignments must leave W consistent: every
        variable present exactly once, version == variable count."""
        from repro.algebra.relations import Relation

        db = UDatabase.from_complete(
            {
                "R": Relation.from_rows(
                    ("A", "B"), [(i, 1 + i % 3) for i in range(12)]
                )
            }
        )
        session = ProbDB(db, strategy="exact-decomposition", cache_size=0, rng=2)
        errors: list[BaseException] = []
        barrier = threading.Barrier(6)

        def worker(tid: int) -> None:
            try:
                barrier.wait()
                for _ in range(10):
                    session.assign(f"K{tid}", "repair-key[A @ B](R)")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        w = session.db.w
        assert w.version == len(w)


# ------------------------------------------------------------- copy privacy
class TestPrivateCopies:
    def test_copy_sessions_do_not_share_mutable_state(self):
        from repro.algebra.relations import Relation

        db = UDatabase.from_complete(
            {"R": Relation.from_rows(("A", "B"), [(i, 1 + i % 3) for i in range(8)])}
        )
        first = repro.connect(db, copy=True, rng=0)
        second = repro.connect(db, copy=True, rng=0)
        assert first.db is not second.db
        assert first.db.w is not second.db.w
        assert first.db.condition_pool is not second.db.condition_pool

        # Growing one session's W (repair-key) leaves the other untouched.
        w_before = len(second.db.w)
        pool_before = len(second.db.condition_pool)
        first.assign("K", "repair-key[A @ B](R)")
        first.query("select[A = 1](join(K, K))")
        assert len(second.db.w) == w_before
        assert len(second.db.condition_pool) == pool_before
        assert "K" not in second.db.relations

    def test_copy_snapshot_is_warm(self):
        db = tuple_independent(
            "R", ("A", "B"), [((i, i % 3), Fraction(1, 2)) for i in range(8)]
        )
        session = repro.connect(db, copy=True, rng=0)
        session.query("join(R, R)")  # populate the pool
        interned = len(session.db.condition_pool)
        copied = session.db.copy()
        assert len(copied.condition_pool) == interned

    def test_udatabase_survives_pickling(self):
        import pickle

        db = tuple_independent(
            "R", ("A", "B"), [((i, i % 3), Fraction(1, 2)) for i in range(4)]
        )
        clone = pickle.loads(pickle.dumps(db))
        assert clone.relation_names == db.relation_names
        assert clone.w.version == db.w.version
        clone.set_relation("S", clone.relation("R"))  # lock was recreated
        assert "S" not in db.relations


class TestStartMethod:
    """One start method: a pool is a forkserver pool, or the executor is serial."""

    @pytest.mark.parametrize("hash_seed", ["0", None])
    def test_start_method_is_forkserver_or_serial_at_any_hash_seed(self, hash_seed):
        import multiprocessing
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env.pop("PYTHONHASHSEED", None)
        if hash_seed is not None:
            env["PYTHONHASHSEED"] = hash_seed
        code = (
            "from repro.util.parallel import ShardExecutor\n"
            "with ShardExecutor(2) as executor:\n"
            "    print(executor.prestart(), executor.start_method)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        if "forkserver" in multiprocessing.get_all_start_methods():
            assert out.stdout.split() == ["True", "forkserver"]
        else:
            assert out.stdout.split() == ["False", "None"]

    def test_prestart_brings_up_the_pool(self):
        with ShardExecutor(2) as executor:
            assert executor.start_method is None  # lazy until forced
            assert executor.prestart()
            assert executor.start_method == "forkserver"
            assert executor.prestart()  # idempotent

    def test_prestart_serial_executor_is_a_noop(self):
        with ShardExecutor(1) as executor:
            assert not executor.prestart()
            assert executor.start_method is None

    def test_a_pool_under_a_random_hash_seed_matches_serial(self):
        """Under a randomized hash seed, the forkserver workers hash unlike
        the parent, and sharded results are still bit-identical to the
        serial in-process path."""
        import subprocess
        import sys

        code = (
            "import repro\n"
            "from repro.generators.coins import coin_database\n"
            "Q = 'project[CoinType, P1 / P2 -> P](join(conf[P1](T), conf[P2](project[](T))))'\n"
            "SCRIPT = '''\n"
            "R := project[CoinType](repair-key[@ Count](Coins));\n"
            "S := project[CoinType, Toss, Face](repair-key[CoinType, Toss @ FProb](\n"
            "       product(Faces, literal[Toss]{(1), (2)})));\n"
            "T := join(R, project[CoinType](select[Toss = 1 and Face = 'H'](S)),\n"
            "          project[CoinType](select[Toss = 2 and Face = 'H'](S)));\n"
            "'''\n"
            "results = []\n"
            "for workers in (1, 2):\n"
            "    db = repro.connect(coin_database(), rng=5, workers=workers)\n"
            "    db.run_script(SCRIPT)\n"
            "    results.append(sorted(db.query(Q).to_complete().rows))\n"
            "    method = db.executor.start_method\n"
            "    db.close()\n"
            "assert results[0] == results[1], results\n"
            "print(method)\n"
        )
        import os

        env = dict(os.environ, PYTHONPATH="src")
        env.pop("PYTHONHASHSEED", None)
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert out.returncode == 0, out.stderr
        # The 2-worker leg must have actually used a pool; platforms
        # without a forkserver stay serial and print None.
        assert out.stdout.strip() in {"forkserver", "None"}
