"""The serving layer: scheduler, budget, protocol, and the determinism soak.

Acceptance criteria exercised here:

* fair-share scheduling — per-tenant quotas, the global in-flight cap,
  per-session FIFO, queue-full rejection, and admission timeouts, each
  by a dedicated test;
* the global cache budget — LRU eviction *across* sessions' caches,
  volatile (RNG-consuming) entries pinned, byte accounting exposed
  through ``ProbDB.cache_stats``;
* the JSON protocol — lossless value round-trips (Fractions, tuples)
  and the typed error taxonomy;
* session lifecycle — ``close`` idempotent and thread-safe, ``aclose``
  from the loop, borrowed executors never torn down;
* the soak — dozens of concurrent sessions of mixed query shapes over
  one shared pool, with forced global eviction and racing open/close,
  **bit-identical** to fresh serial sessions.
"""

from __future__ import annotations

import asyncio
import threading
from fractions import Fraction

import pytest

import repro
from repro.engine.cache import MemoCache, approx_size
from repro.generators.coins import coin_database
from repro.server import (
    AdmissionTimeoutError,
    CacheBudget,
    Client,
    FairShareScheduler,
    Job,
    ProtocolError,
    QueryError,
    QuotaExceededError,
    Server,
    ServerClosedError,
    SessionClosedError,
    UnknownSessionError,
    serve,
)
from repro.server import protocol
from repro.util.parallel import ShardExecutor

# Self-contained query shapes (no session assignments needed): the
# Example 2.2 pipeline inlined — R draws a coin, S models two tosses, T
# conditions on both coming up heads.
R_QUERY = "project[CoinType](repair-key[@ Count](Coins))"
S_QUERY = (
    "project[CoinType, Toss, Face](repair-key[CoinType, Toss @ FProb]"
    "(product(Faces, literal[Toss]{(1), (2)})))"
)
T_QUERY = (
    f"join({R_QUERY}, project[CoinType](select[Toss = 1 and Face = 'H']({S_QUERY})), "
    f"project[CoinType](select[Toss = 2 and Face = 'H']({S_QUERY})))"
)
POSTERIOR = (
    f"project[CoinType, P1 / P2 -> P]"
    f"(join(conf[P1]({T_QUERY}), conf[P2](project[]({T_QUERY}))))"
)
ACONF_POSTERIOR = (
    f"project[CoinType, P1 / P2 -> P]"
    f"(join(aconf[0.2, 0.1, P1]({T_QUERY}), aconf[0.2, 0.1, P2](project[]({T_QUERY}))))"
)
ASELECT = f"aselect[P1 / P2 <= 0.5 ; conf(CoinType) as P1, conf() as P2]({T_QUERY})"


def run(coro):
    return asyncio.run(coro)


# ===================================================================== scheduler
class TestFairShareScheduler:
    def test_round_robin_is_fair_across_tenants(self):
        sched = FairShareScheduler(tenant_quota=1, max_in_flight=2, max_queue=8)
        for i in range(3):
            sched.submit(Job("a", f"a{i}"))
        sched.submit(Job("b", "b0"))
        started = sched.dispatch()
        # One slot each — tenant a's backlog cannot starve tenant b.
        assert sorted(job.tenant for job in started) == ["a", "b"]

    def test_tenant_quota_enforced(self):
        sched = FairShareScheduler(tenant_quota=2, max_in_flight=8, max_queue=8)
        for i in range(5):
            sched.submit(Job("a", f"s{i}"))
        started = sched.dispatch()
        assert len(started) == 2
        sched.complete(started[0])
        assert len(sched.dispatch()) == 1  # freed slot refills, still ≤ quota

    def test_global_in_flight_cap(self):
        sched = FairShareScheduler(tenant_quota=4, max_in_flight=3, max_queue=8)
        for tenant in "abcde":
            sched.submit(Job(tenant, f"{tenant}0"))
        assert len(sched.dispatch()) == 3
        assert sched.in_flight == 3
        assert sched.queued == 2

    def test_session_jobs_never_run_concurrently(self):
        sched = FairShareScheduler(tenant_quota=4, max_in_flight=8, max_queue=8)
        first, second = Job("a", "s1"), Job("a", "s1")
        other = Job("a", "s2")
        for job in (first, second, other):
            sched.submit(job)
        started = sched.dispatch()
        assert first in started and other in started and second not in started
        sched.complete(first)
        assert sched.dispatch() == [second]  # FIFO within the session

    def test_queue_full_rejects(self):
        sched = FairShareScheduler(tenant_quota=1, max_in_flight=1, max_queue=2)
        accepted = [sched.submit(Job("a", f"s{i}")) for i in range(4)]
        assert accepted == [True, True, False, False]
        assert sched.rejected == 2
        # Another tenant's queue is unaffected by a's backlog.
        assert sched.submit(Job("b", "b0"))

    def test_max_queue_zero_admits_only_runnable(self):
        sched = FairShareScheduler(tenant_quota=1, max_in_flight=1, max_queue=0)
        assert sched.submit(Job("a", "s1"))
        sched.dispatch()
        assert not sched.submit(Job("a", "s2"))  # no slot, no queueing

    def test_cancel_queued_and_session_sweep(self):
        sched = FairShareScheduler(tenant_quota=1, max_in_flight=1, max_queue=8)
        running, queued_a, queued_b = Job("a", "s1"), Job("a", "s1"), Job("a", "s2")
        for job in (running, queued_a, queued_b):
            sched.submit(job)
        sched.dispatch()
        assert not sched.cancel(running)  # running jobs finish normally
        assert [j.session for j in sched.cancel_session("s1")] == ["s1"]
        assert sched.cancel(queued_b)
        assert sched.queued == 0

    def test_stats_shape(self):
        sched = FairShareScheduler()
        sched.submit(Job("a", "s1"))
        sched.dispatch()
        stats = sched.stats()
        assert stats["in_flight"] == 1
        assert stats["tenants"]["a"]["running"] == 1
        assert stats["peak_in_flight"] == 1


# ======================================================================== budget
def _filled_cache(keys, volatile=False) -> MemoCache:
    cache = MemoCache(64)
    for key in keys:
        cache.put(key, list(range(64)), volatile=volatile)
    return cache


class TestCacheAccounting:
    def test_approx_size_positive_and_monotone(self):
        small = approx_size((1, 2.5, "x"))
        large = approx_size([list(range(100)) for _ in range(10)])
        assert 0 < small < large

    def test_approx_size_handles_cycles_and_slots(self):
        loop: list = []
        loop.append(loop)
        assert approx_size(loop) > 0

        class Slotted:
            __slots__ = ("a", "b")

        s = Slotted()
        s.a, s.b = list(range(50)), "payload"
        assert approx_size(s) > approx_size("payload")

    def test_put_get_evict_track_bytes(self):
        cache = MemoCache(8)
        cache.put("k1", list(range(100)))
        b1 = cache.approx_bytes
        cache.put("k2", list(range(100)))
        assert cache.approx_bytes > b1
        freed = cache.evict_lru()
        assert freed > 0
        assert cache.approx_bytes == b1
        assert cache.stats.entries == 1

    def test_lru_tick_skips_volatile(self):
        cache = MemoCache(8)
        cache.put("pinned", "sampled", volatile=True)
        assert cache.lru_tick() is None
        assert cache.evict_lru() == 0
        cache.put("plain", "exact")
        assert cache.lru_tick() is not None

    def test_hit_refreshes_global_recency(self):
        a = _filled_cache(["a1"])
        b = _filled_cache(["b1"])
        a.get("a1")  # now a1 is globally more recent than b1
        assert b.lru_tick() < a.lru_tick()

    def test_probdb_cache_stats_exposes_bytes(self):
        db = repro.connect(coin_database(), rng=0, workers=None)
        db.query(POSTERIOR)
        stats = db.cache_stats
        assert stats["approx_bytes"] > 0
        assert set(stats) == {"hits", "misses", "entries", "approx_bytes"}


class TestCacheBudget:
    def test_evicts_globally_lru_across_caches(self):
        a = _filled_cache(["a1", "a2"])
        b = _filled_cache(["b1", "b2"])
        budget = CacheBudget(max_bytes=None)
        budget.register(a)
        budget.register(b)
        a.get("a1")
        a.get("a2")  # b's entries are now the global LRU tail
        budget.max_bytes = a.approx_bytes + b.approx_bytes - 1
        budget.rebalance()
        assert len(b) == 1 and len(a) == 2
        assert budget.evictions == 1

    def test_volatile_entries_survive_pressure(self):
        pinned = _filled_cache(["v1", "v2"], volatile=True)
        plain = _filled_cache(["p1"])
        budget = CacheBudget(max_bytes=1)  # impossible budget
        budget.register(pinned)
        budget.register(plain)
        budget.rebalance()
        assert len(pinned) == 2  # never evicted, though over budget
        assert len(plain) == 0

    def test_put_triggers_rebalance(self):
        cache = MemoCache(64)
        budget = CacheBudget(max_bytes=1)
        budget.register(cache)
        cache.put("k1", list(range(100)))
        cache.put("k2", list(range(100)))
        # Each growing put pokes the budget; only the newest can remain
        # (and is itself evicted on the next pressure check).
        assert budget.evictions >= 1

    def test_unregister_stops_accounting(self):
        cache = _filled_cache(["k"])
        budget = CacheBudget(max_bytes=0)
        budget.register(cache)
        assert len(cache) == 0
        budget.unregister(cache)
        cache.put("k2", "v")
        assert len(cache) == 1  # no longer under the budget


class TestApproxSizeBoundary:
    """Regression: the traversal cap was checked before counting, so
    ``max_nodes=0`` (and a cap reached exactly at the root) reported 0
    bytes — a free pass under the byte budget.  The cap is now
    inclusive and the root always counts."""

    def test_zero_cap_still_counts_the_root(self):
        value = list(range(100))
        assert approx_size(value, max_nodes=0) > 0

    def test_cap_one_counts_exactly_the_root(self):
        import sys

        value = list(range(100))
        assert approx_size(value, max_nodes=1) == sys.getsizeof(value)
        # max_nodes=0 clamps to the same "root only" floor.
        assert approx_size(value, max_nodes=0) == sys.getsizeof(value)

    def test_cap_counts_exactly_n_objects_on_flat_containers(self):
        import sys

        # 50 distinct equal-footprint elements: cap=n counts the root
        # plus n−1 of them, whatever order the traversal pops.
        elements = [10_000 + i for i in range(50)]
        value = list(elements)
        per_element = sys.getsizeof(elements[0])
        assert all(sys.getsizeof(e) == per_element for e in elements)
        root = sys.getsizeof(value)
        for cap in (1, 2, 10, 51):
            assert approx_size(value, max_nodes=cap) == root + (cap - 1) * per_element
        # Past the object count the full size is reported, not more.
        full = root + 50 * per_element
        assert approx_size(value, max_nodes=1000) == full


class TestEvictionRaceRegressions:
    """Regressions for the choose/evict and attach/detach races.

    ``CacheBudget.rebalance`` picks its victim cache by ``lru_tick`` and
    then evicts; a hit landing in between used to refresh the chosen
    entry yet still get a *different* entry evicted on its behalf.  And
    ``MemoCache._budget`` was read without the lock, so a put racing
    ``unregister`` could poke a detached budget into evicting other
    tenants' entries against a stale total.
    """

    def test_evict_lru_noops_on_stale_tick(self):
        cache = _filled_cache(["old", "new"])
        stale = cache.lru_tick()
        cache.get("old")  # refresh: the tick comparison no longer holds
        assert cache.evict_lru(stale) == 0
        assert len(cache) == 2  # nothing was evicted on the stale claim
        # With the *current* tick (now "new"'s) the eviction proceeds.
        assert cache.evict_lru(cache.lru_tick()) > 0
        assert len(cache) == 1
        # And the unguarded call keeps its pre-existing contract.
        assert cache.evict_lru() > 0
        assert len(cache) == 0

    def test_rebalance_repicks_after_interposed_hit(self):
        """A hit between choose and evict must redirect, not misfire."""

        class Interposed(MemoCache):
            """Refreshes the chosen entry once, right before eviction —
            the worst-case interleaving, made deterministic."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.interpose_key = None

            def evict_lru(self, expected_tick=None):
                if self.interpose_key is not None:
                    key, self.interpose_key = self.interpose_key, None
                    self.get(key)
                return super().evict_lru(expected_tick)

        cache = Interposed(64)
        cache.put("hot", list(range(64)))
        cache.put("cold", list(range(64)))
        # "hot" is the current LRU head; the interposed hit refreshes it
        # mid-eviction, so the rebalance must re-pick and evict "cold".
        cache.interpose_key = "hot"
        budget = CacheBudget(max_bytes=cache.approx_bytes - 1)
        budget.register(cache)
        assert cache.get("hot") is not None
        assert cache.get("cold") is None
        assert budget.evictions == 1

    def test_hammered_hits_never_divert_eviction(self):
        """Thread-hammer the race window: hits during rebalance may only
        delay eviction, never misdirect it onto the refreshed entry."""
        cache = MemoCache(256)
        cache.put("hot", list(range(64)))
        for i in range(40):
            cache.put(("cold", i), list(range(64)))
        cache.get("hot")  # hot is now strictly newer than every cold entry
        # Budget pinned at the current footprint: every further put must
        # evict, but ~40 colder entries always shield the hot one — only
        # a misdirected eviction could remove it.
        budget = CacheBudget(max_bytes=cache.approx_bytes)
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                cache.get("hot")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            budget.register(cache)  # every put below rebalances under fire
            for i in range(40, 60):
                cache.get("hot")
                cache.put(("cold", i), list(range(64)))
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert cache.get("hot") is not None  # the hot entry survived
        assert budget.evictions > 0  # the shield was under real pressure
        assert cache.stats.entries == len(cache)

    def test_detached_cache_never_pokes_the_budget(self):
        class Counting(CacheBudget):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.rebalances = 0

            def rebalance(self):
                self.rebalances += 1
                return super().rebalance()

        budget = Counting(max_bytes=None)
        cache = MemoCache(64)
        budget.register(cache)
        cache.put("while-attached", "v")
        attached = budget.rebalances
        assert attached >= 1
        budget.unregister(cache)
        cache.put("after-detach", "v")
        assert budget.rebalances == attached  # detach is a hard stop

    def test_closing_tenants_puts_cannot_evict_survivors(self):
        """Hammer close-during-put: concurrent register/put/unregister
        cycles must never corrupt the registry, divert eviction onto the
        surviving tenant, or let a detached cache lose its late puts."""
        budget = CacheBudget(max_bytes=None)
        survivor = MemoCache(64)
        budget.register(survivor)
        for i in range(8):
            # Volatile: pinned against *legitimate* cross-cache eviction,
            # so any disappearance can only come from the race under test.
            survivor.put(("keep", i), list(range(64)), volatile=True)
        # A budget the survivor alone fits, with no room for anyone else.
        budget.max_bytes = survivor.approx_bytes

        errors: list[Exception] = []
        closers: list[MemoCache] = []
        closers_lock = threading.Lock()

        def churn(worker):
            try:
                for round_no in range(20):
                    closer = MemoCache(64)
                    budget.register(closer)
                    for j in range(4):
                        closer.put((worker, round_no, j), list(range(64)))
                    budget.unregister(closer)
                    for j in range(4):  # detached puts: must not poke
                        closer.put((worker, round_no, "late", j), "v")
                    with closers_lock:
                        closers.append(closer)
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(survivor) == 8  # every survivor entry is intact
        assert all(survivor.get(("keep", i)) is not None for i in range(8))
        # Detached caches are out of the evictor's reach: every late put
        # survives, whatever rebalances its earlier puts provoked.
        assert len(closers) == 80
        for closer in closers:
            assert closer.stats.entries >= 4
        # The registry quiesced back to the lone survivor.
        assert budget.total_bytes() == survivor.approx_bytes


# ====================================================================== protocol
class TestProtocol:
    def test_values_round_trip_losslessly(self):
        import json

        values = [
            Fraction(1, 3),
            ("fair", Fraction(2, 3), 0.125),
            [("a", 1), ("b", None)],
            {"nested": (Fraction(7, 11), [True, "x"])},
        ]
        for value in values:
            wire = json.loads(json.dumps(protocol.encode_value(value)))
            assert protocol.decode_value(wire) == value
            assert type(protocol.decode_value(wire)) is type(value)

    def test_malformed_requests_raise_protocol_error(self):
        good = protocol.request("query", "t", session="s", params={"query": "Coins"})
        protocol.validate_request(good)
        for bad in (
            "not-a-dict",
            {"v": 99, "op": "query", "tenant": "t", "session": "s"},
            {"v": 1, "op": "no-such-op", "tenant": "t"},
            {"v": 1, "op": "query", "tenant": "", "session": "s"},
            {"v": 1, "op": "query", "tenant": "t"},  # compute needs session
        ):
            with pytest.raises(ProtocolError):
                protocol.validate_request(bad)

    def test_error_round_trip_preserves_type(self):
        response = protocol.error_response(QuotaExceededError("queue full"))
        with pytest.raises(QuotaExceededError, match="queue full"):
            protocol.result_or_raise(response)


# ============================================================== session lifecycle
class TestSessionLifecycle:
    def test_close_is_idempotent_and_thread_safe(self):
        db = repro.connect(coin_database(), workers=2)
        barrier = threading.Barrier(8)
        errors = []

        def hammer():
            barrier.wait()
            try:
                db.close()
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert db.closed
        db.close()  # still a no-op
        # The session stays usable: the same shards now run in process.
        assert len(db.query(R_QUERY).rows) == 2

    def test_aclose_from_event_loop(self):
        db = repro.connect(coin_database(), workers=1)

        async def main():
            await db.aclose()
            await db.aclose()
            return db.closed

        assert run(main())

    def test_borrowed_executor_survives_session_close(self):
        shared = ShardExecutor(2)
        try:
            a = repro.connect(coin_database(), workers=shared)
            b = repro.connect(coin_database(), workers=shared)
            a.close()
            assert not shared._closed
            assert len(b.query(R_QUERY).rows) == 2
        finally:
            shared.close()


# ============================================================== workers setting
class TestWorkersSetting:
    """``REPRO_WORKERS`` means the same thing to ``connect()`` and ``serve()``."""

    @staticmethod
    def _workers_of_both_entry_points():
        with repro.connect(coin_database()) as db:
            session_workers = db.executor.workers
            plan = str(db.explain(f"conf[P]({T_QUERY})"))
        server = serve(coin_database())

        async def main():
            client = Client(server, tenant="t1")
            session = await client.open_session(seed=1)
            served_plan = await session.explain(f"conf[P]({T_QUERY})")
            stats = await client.stats()
            await server.aclose()
            return served_plan, stats["executor"]["workers"]

        served_plan, server_workers = run(main())
        return session_workers, server_workers, plan, served_plan

    @pytest.mark.parametrize("raw", [None, "", "0", "1"])
    def test_unset_and_zero_are_one_serial_executor(self, monkeypatch, raw):
        if raw is None:
            monkeypatch.delenv("REPRO_WORKERS", raising=False)
        else:
            monkeypatch.setenv("REPRO_WORKERS", raw)
        session_workers, server_workers, plan, served_plan = (
            self._workers_of_both_entry_points()
        )
        assert session_workers == server_workers == 1
        assert "sharded[" not in plan and "sharded[" not in served_plan

    def test_pool_size_reaches_both_entry_points(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        session_workers, server_workers, plan, served_plan = (
            self._workers_of_both_entry_points()
        )
        assert session_workers == server_workers == 2
        assert "sharded[2]" in plan and "sharded[2]" in served_plan

    @pytest.mark.parametrize("raw", ["-1", "two"])
    def test_bad_values_name_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            repro.connect(coin_database())
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            serve(coin_database())


# ======================================================================== server
class TestServerBasics:
    def test_query_and_confidence_round_trip(self):
        server = serve(coin_database(), workers=1)

        async def main():
            client = Client(server, tenant="t1", wire=True)
            session = await client.open_session(seed=3)
            rows = await session.query(R_QUERY)
            posterior = await session.query(POSTERIOR)
            conf = await session.confidence_all(T_QUERY)
            await session.close()
            await server.aclose()
            return rows, posterior, conf

        rows, posterior, conf = run(main())
        assert rows == [("2headed",), ("fair",)]
        assert set(posterior) == {("fair", Fraction(1, 3)), ("2headed", Fraction(2, 3))}
        # Protocol Fractions match a direct engine call bit-for-bit.
        direct = repro.connect(coin_database(), rng=3, workers=1)
        expected = {row: rep.value for row, rep in direct.confidence_all(T_QUERY).items()}
        assert {row: rep["value"] for row, rep in conf.items()} == expected

    def test_typed_errors(self):
        server = serve(coin_database(), workers=1)

        async def main():
            client = Client(server, tenant="t1", wire=True)
            with pytest.raises(UnknownSessionError):
                await client.call("query", session="s999", params={"query": R_QUERY})
            session = await client.open_session()
            with pytest.raises(QueryError):
                await session.query("select[*malformed](Coins)")
            # Sessions are tenant-private.
            intruder = Client(server, tenant="t2", wire=True)
            with pytest.raises(UnknownSessionError):
                await intruder.call(
                    "query", session=session.session_id, params={"query": R_QUERY}
                )
            await session.close()
            with pytest.raises(SessionClosedError):
                await session.query(R_QUERY)
            await server.aclose()
            with pytest.raises(ServerClosedError):
                await client.open_session()

        run(main())

    def test_quota_exceeded_is_immediate(self):
        server = serve(
            coin_database(), workers=1, tenant_quota=1, max_in_flight=1, max_queue=0
        )

        async def main():
            client = Client(server, tenant="t1")
            a = await client.open_session(seed=1)
            b = await client.open_session(seed=2)
            slow = asyncio.ensure_future(
                # bounds_budget=0 keeps the job on pure sampling — slow
                # enough to still hold the worker when the probe arrives.
                a.evaluate_with_guarantee(ASELECT, delta=0.1, eps0=0.05, bounds_budget=0)
            )
            while server._scheduler.dispatched == 0:  # job reached a thread
                await asyncio.sleep(0.001)
            with pytest.raises(QuotaExceededError):
                await b.query(R_QUERY)
            report = await slow  # the running job is unharmed
            await server.aclose()
            return report

        report = run(main())
        assert report["achieved"] is True

    def test_admission_timeout_fires_for_queued_request(self):
        server = serve(
            coin_database(),
            workers=1,
            tenant_quota=1,
            max_in_flight=1,
            max_queue=8,
            admission_timeout=0.005,
        )

        async def main():
            client = Client(server, tenant="t1")
            a = await client.open_session(seed=1)
            b = await client.open_session(seed=2)
            slow = asyncio.ensure_future(
                # bounds_budget=0 keeps the job on pure sampling — slow
                # enough to still hold the worker when the probe arrives.
                a.evaluate_with_guarantee(ASELECT, delta=0.1, eps0=0.05, bounds_budget=0)
            )
            while server._scheduler.dispatched == 0:
                await asyncio.sleep(0.001)
            with pytest.raises(AdmissionTimeoutError):
                await b.query(R_QUERY)
            await slow
            await server.aclose()

        run(main())

    def test_close_session_cancels_queued_jobs(self):
        server = serve(coin_database(), workers=1, tenant_quota=1, max_in_flight=1)

        async def main():
            client = Client(server, tenant="t1")
            a = await client.open_session(seed=1)
            b = await client.open_session(seed=2)
            slow = asyncio.ensure_future(
                # bounds_budget=0 keeps the job on pure sampling — slow
                # enough to still hold the worker when the probe arrives.
                a.evaluate_with_guarantee(ASELECT, delta=0.1, eps0=0.05, bounds_budget=0)
            )
            while server._scheduler.dispatched == 0:
                await asyncio.sleep(0.001)
            queued = asyncio.ensure_future(b.query(R_QUERY))
            while server._scheduler.queued == 0:
                await asyncio.sleep(0.001)
            await b.close()
            with pytest.raises(SessionClosedError):
                await queued
            await slow
            await server.aclose()

        run(main())

    def test_global_eviction_under_cache_pressure(self):
        # A budget far below one session's working set forces cross-entry
        # eviction — and evicted exact entries recompute identically.
        server = serve(coin_database(), workers=1, max_cache_bytes=4096)

        async def main():
            client = Client(server, tenant="t1", wire=True)
            session = await client.open_session(seed=5)
            first = await session.query(POSTERIOR)
            again = await session.query(POSTERIOR)
            stats = await client.stats()
            await server.aclose()
            return first, again, stats

        first, again, stats = run(main())
        assert first == again
        assert stats["cache"]["evictions"] > 0
        assert stats["cache"]["max_bytes"] == 4096

    def test_per_session_fifo_matches_serial_replay(self):
        # Five *concurrent* sampled requests into one session: per-session
        # FIFO makes the answers identical to five serial calls.
        async def concurrent():
            server = serve(coin_database(), workers=1, max_in_flight=4)
            client = Client(server, tenant="t1", wire=True)
            session = await client.open_session(seed=9)
            results = await asyncio.gather(
                *(session.query(ACONF_POSTERIOR) for _ in range(5))
            )
            await server.aclose()
            return results

        db = repro.connect(coin_database(), rng=9, workers=1)
        serial = []
        for _ in range(5):
            result = db.query(ACONF_POSTERIOR)
            serial.append(protocol.decode_rows(protocol.encode_rows(result.rows)))
        assert run(concurrent()) == serial


# ========================================================================== soak
SOAK_SESSIONS = 36
SOAK_TENANTS = 6


def _soak_ops(shape: int) -> list[tuple[str, dict]]:
    """The request sequence of one soak session, by shape index."""
    if shape == 0:  # exact posterior, repeated (cache hit / post-eviction)
        return [
            ("query", {"query": R_QUERY}),
            ("query", {"query": POSTERIOR}),
            ("query", {"query": POSTERIOR}),
        ]
    if shape == 1:  # batched per-tuple confidence
        return [
            ("confidence_all", {"query": T_QUERY}),
            ("query", {"query": R_QUERY}),
            ("confidence_all", {"query": T_QUERY}),
        ]
    if shape == 2:  # sampled aconf — RNG-consuming, volatile cache entries
        return [
            ("query", {"query": ACONF_POSTERIOR}),
            ("query", {"query": ACONF_POSTERIOR}),
        ]
    return [  # the Theorem 6.7 driver
        ("evaluate_with_guarantee", {"query": ASELECT, "delta": 0.1, "eps0": 0.05}),
        ("query", {"query": R_QUERY}),
    ]


async def _run_soak_session(client: Client, index: int) -> list:
    session = await client.open_session(seed=1000 + index)
    transcript = []
    for op, params in _soak_ops(index % 4):
        transcript.append(
            await client.call(op, session=session.session_id, params=params)
        )
    await session.close()
    return transcript


async def _churn(server: Server, rounds: int) -> None:
    """Racing open/close traffic while the soak sessions compute."""
    client = Client(server, tenant="churn")
    for i in range(rounds):
        session = await client.open_session(seed=7000 + i)
        await session.query(R_QUERY)
        await session.close()


class TestSoak:
    def test_concurrent_sessions_bit_identical_to_serial(self):
        async def soak():
            # Shared 2-worker pool, a budget low enough to force global
            # eviction, tight quotas so scheduling genuinely interleaves.
            server = serve(
                coin_database(),
                workers=2,
                max_cache_bytes=100_000,
                tenant_quota=2,
                max_in_flight=4,
            )
            clients = [
                Client(server, tenant=f"tenant{t}", wire=True)
                for t in range(SOAK_TENANTS)
            ]
            tasks = [
                _run_soak_session(clients[i % SOAK_TENANTS], i)
                for i in range(SOAK_SESSIONS)
            ]
            results = await asyncio.gather(*tasks, _churn(server, 8))
            stats = await clients[0].stats()
            await server.aclose()
            return results[:SOAK_SESSIONS], stats

        async def serial():
            # Fresh sessions, one at a time, serial shard plan, no budget:
            # the reference answers.
            server = serve(coin_database(), workers=1)
            client = Client(server, tenant="serial", wire=True)
            transcripts = [
                await _run_soak_session(client, i) for i in range(SOAK_SESSIONS)
            ]
            await server.aclose()
            return transcripts

        concurrent_transcripts, stats = run(soak())
        serial_transcripts = run(serial())
        for i, (got, want) in enumerate(
            zip(concurrent_transcripts, serial_transcripts)
        ):
            assert got == want, f"session {i} diverged under concurrency"
        # The soak really exercised the machinery it claims to:
        assert stats["cache"]["evictions"] > 0, "budget never evicted"
        assert stats["scheduler"]["peak_in_flight"] >= 2, "never concurrent"
        assert stats["scheduler"]["completed"] >= SOAK_SESSIONS
        assert stats["sessions"]["open"] == 0
