"""The deterministic shard executor and session-safety fixes (PR 4).

Three claim families:

* **Determinism matrix** — the tentpole contract: with one seed, every
  sharded entry point (``confidence_all``, ``evaluate_with_guarantee``,
  the Karp–Luby samplers) returns *bit-identical* results for
  ``workers ∈ {1, 2, 4}``, on both the ``numpy`` and ``python`` trial
  backends.  The shard plan and the per-shard generators are functions
  of the workload and the shard index only — never of the worker count.
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
from repro.util.backends import HAS_NUMPY
from repro.util.parallel import ShardExecutor, shard_seed, spawn_shard_rng

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not available")

BACKENDS = [
    "python",
    pytest.param("numpy", marks=needs_numpy),
]
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
            trial_plans = {w: ShardExecutor(w).plan_trials(n) for w in (0, 1, 2, 4, 64)}
            assert len(set(map(tuple, trial_plans.values()))) == 1

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

    def test_plan_trials_preserves_budget(self):
        ex = ShardExecutor(4)
        for n in (1, 4095, 4096, 8191, 8192, 1_000_000):
            blocks = ex.plan_trials(n)
            assert sum(blocks) == n
            assert len(blocks) <= ex.max_shards
            if len(blocks) > 1:
                assert min(blocks) >= ex.min_shard_trials

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

    def test_unvalidated_unpicklable_tasks_fall_back_to_serial(self):
        """``validate=False`` skips the pickle dry run; a task that then
        fails to pickle surfaces at result-collection time and must
        still fall back to the serial path (and retire the pool, whose
        manager thread cannot be trusted after a failed work-item
        pickle)."""
        executor = ShardExecutor(2)
        locks = [threading.Lock(), threading.Lock()]  # unpicklable args
        results = executor.map(_first_arg, [(lock,) for lock in locks], validate=False)
        assert results == locks
        # The executor degraded to serial for good, but keeps answering.
        assert not executor.parallel
        assert executor.map(_first_arg, [(1,), (2,)], validate=False) == [1, 2]
        executor.close()

    def test_unpicklable_tasks_fall_back_to_serial(self):
        # A lock cannot cross a process boundary; the map must quietly
        # run the (bit-identical) serial path instead of raising.
        with ShardExecutor(2) as ex:
            out = ex.map(_type_name, [(threading.Lock(),), (threading.Lock(),)])
        assert out == ["lock", "lock"]

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            ShardExecutor(-1)


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
    """Same seed, workers ∈ {omitted, 1, 2, 4} ⇒ identical results, per backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("strategy", ["karp-luby", "auto", "naive-mc"])
    def test_confidence_all(self, backend, strategy):
        def run(workers):
            session = repro.connect(
                _sampled_db(),
                strategy=strategy,
                eps=0.4,
                delta=0.2,
                rng=11,
                backend=backend,
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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_evaluate_with_guarantee(self, backend):
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
                backend=backend,
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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_karp_luby_sampler_outputs(self, backend):
        dnf = _one_dnf()

        def run(workers):
            sampler = BatchKarpLubySampler(
                dnf, rng=21, backend=backend, executor=_executor_for(workers)
            )
            sampler.run(20_000)
            return (sampler.estimate, sampler.positives, sampler.trials)

        results = [run(w) for w in WORKER_MATRIX]
        assert _all_equal(results)
        assert results[0][2] == 20_000

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_shot_fpras_and_shared_block(self, backend):
        dnf = _one_dnf()

        def fpras(workers):
            est = batch_approximate_confidence(
                dnf, 0.2, 0.1, rng=31, backend=backend, executor=_executor_for(workers)
            )
            return (est.estimate, est.positives, est.samples)

        def shared(workers):
            dnfs = [_one_dnf(seed=s) for s in (1, 1, 2)]
            # shared_block_confidences wants one common W table.
            w = dnfs[0].w
            dnfs = [Dnf(d.members, w) for d in dnfs[:1]] * 2 + [
                Dnf(_one_dnf(seed=1).members, w)
            ]
            ests = shared_block_confidences(
                dnfs, 9000, rng=41, backend=backend, executor=_executor_for(workers)
            )
            return [(e.estimate, e.positives, e.samples) for e in ests]

        assert _all_equal([fpras(w) for w in WORKER_MATRIX])
        assert _all_equal([shared(w) for w in WORKER_MATRIX])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_tuple_confidence(self, backend):
        """result.confidence(row) / tuple_confidence also shards (its one
        tuple's trial budget) and stays identical across worker counts."""

        def run(workers):
            session = repro.connect(
                _sampled_db(n_tuples=1),
                strategy="karp-luby",
                eps=0.3,
                delta=0.1,
                rng=13,
                backend=backend,
                workers=workers,
            )
            with session:
                relation = session.relation("R")
                return _report_key(session.tuple_confidence(relation, (0,)))

        results = [run(w) for w in WORKER_MATRIX]
        assert _all_equal(results)
        assert results[0][1] > 0  # genuinely sampled

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_aconf_operator_uses_session_backend_and_executor(self, backend):
        """``aconf[ε, δ, P](R)`` draws each tuple's budget on the session's
        trial backend and executor — the same call a strategy makes."""
        eps, delta = 0.2, 0.1

        def run(workers):
            session = repro.connect(
                _sampled_db(n_tuples=1), rng=13, backend=backend, workers=workers
            )
            with session:
                result = session.query(f"aconf[{eps}, {delta}, P](R)")
                return sorted(result.relation.to_complete().rows)

        results = [run(w) for w in (None, 1, 2)]
        assert _all_equal(results)

        relation = _sampled_db(n_tuples=1).relation("R")
        dnf = Dnf.for_tuple(relation, (0,), _sampled_db(n_tuples=1).w)
        expected = batch_approximate_confidence(dnf, eps, delta, rng=13, backend=backend)
        assert expected.samples > 0  # genuinely sampled
        assert results[0] == [(0, expected.estimate)]
        if HAS_NUMPY:
            other = "numpy" if backend == "python" else "python"
            elsewhere = batch_approximate_confidence(dnf, eps, delta, rng=13, backend=other)
            assert elsewhere.estimate != expected.estimate  # the backend shows

    def test_workers_one_merges_like_many(self):
        """The serial path IS the sharded plan: a hand-merged per-block
        rerun reproduces workers=1 exactly (trial-count weighting)."""
        dnf = _one_dnf()
        executor = ShardExecutor(1)
        sampler = BatchKarpLubySampler(
            dnf, rng=77, backend="python", executor=executor
        )
        sampler.run(20_000)

        base = random.Random(77).getrandbits(64)
        from repro.confidence.batch import _karp_luby_trial_block

        positives = sum(
            _karp_luby_trial_block(sampler._enc, count, shard_seed(base, i), "python")
            for i, count in enumerate(executor.plan_trials(20_000))
        )
        assert positives == sampler.positives


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

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy not available")
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
        assert shared._tuple_index() is shared._tuple_index()
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
    """The forkserver/fork/serial start-method choice and hash-seed handoff."""

    def _probe(self, env_seed):
        """pool_start_method() as seen by a subprocess with the given seed."""
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env.pop("PYTHONHASHSEED", None)
        if env_seed is not None:
            env["PYTHONHASHSEED"] = env_seed
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.util.parallel import pool_start_method;"
                "print(pool_start_method())",
            ],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()

    def test_pinned_hash_seed_selects_forkserver(self):
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        expected = "forkserver" if "forkserver" in methods else (
            "fork" if "fork" in methods else "None"
        )
        assert self._probe("0") == expected
        assert self._probe("12345") == expected

    def test_randomized_hash_seed_falls_back_to_fork(self):
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        expected = "fork" if "fork" in methods else "None"
        assert self._probe(None) == expected
        assert self._probe("random") == expected

    def test_prestart_brings_up_the_pool(self):
        with ShardExecutor(2) as executor:
            assert executor.start_method is None  # lazy until forced
            assert executor.prestart()
            assert executor.start_method in {"fork", "forkserver"}
            assert executor.prestart()  # idempotent

    def test_prestart_serial_executor_is_a_noop(self):
        with ShardExecutor(1) as executor:
            assert not executor.prestart()
            assert executor.start_method is None

    def test_forkserver_results_match_serial(self, monkeypatch):
        """Under a pinned hash seed (forkserver pool), sharded results are
        bit-identical to the serial in-process path."""
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

        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = "src"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert out.returncode == 0, out.stderr
        # The 2-worker leg must have actually used a pool (forkserver when
        # available under the pinned seed); serial-only platforms print None.
        assert out.stdout.strip() in {"forkserver", "fork", "None"}
