"""A global byte budget shared by every session's memo caches.

One server hosts many sessions, each with its own
:class:`~repro.engine.cache.MemoCache` (holding both query-level and
confidence entries).  Left alone, N tenants' caches grow to N times one
session's working set.  :class:`CacheBudget` caps the *sum*: after any cache
grows, :meth:`rebalance` evicts the globally least-recently-used
evictable entry — across **all** registered caches, whichever session
owns it — until the total fits ``max_bytes`` again.  A hot tenant's
working set therefore squeezes out a cold tenant's stale entries, not
its own fresh ones.

Only *non-volatile* entries are evicted.  An entry is volatile when
recomputing it would consume session RNG (sampled confidence); evicting
those would let one tenant's cache pressure shift another session's
sampled stream, breaking the determinism contract.  Volatile entries
are pinned; the budget treats them as immovable floor.  (Exact results
recompute without touching the RNG, so they are fair game — see
``repro.engine.cache`` for the marking rules.)

Thread-safety and lock ordering: caches are touched from worker
threads, the budget from whichever thread finished a ``put``.  The
global order is **budget lock → cache lock**, never the reverse —
:meth:`MemoCache.put` notifies the budget only *after* releasing its
own lock, and the budget calls ``lru_tick``/``evict_lru`` (which take
cache locks) while holding its registry lock.  No cycle, no deadlock.
"""

from __future__ import annotations

import threading

from repro.engine.cache import MemoCache

__all__ = ["CacheBudget"]


class CacheBudget:
    """LRU-evict across many caches to keep their summed bytes bounded."""

    def __init__(self, max_bytes: int | None):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0 or None (unbounded)")
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._caches: list[MemoCache] = []
        self.evictions = 0
        self.bytes_evicted = 0

    # ------------------------------------------------------------- registry
    def register(self, cache: MemoCache) -> None:
        """Start accounting ``cache``; its future puts trigger rebalances."""
        with self._lock:
            if cache not in self._caches:
                self._caches.append(cache)
        cache.set_budget(self)
        self.rebalance()

    def unregister(self, cache: MemoCache) -> None:
        """Stop accounting ``cache`` (its session closed).

        Order matters: the cache leaves the registry *before* the
        attachment is cleared.  A ``put`` racing this close may still
        poke one last ``rebalance`` (it read the attachment before the
        detach), but by then the rebalance no longer counts the closing
        cache's bytes — so a dying session's inserts can never evict
        other tenants' entries on its behalf.
        """
        with self._lock:
            try:
                self._caches.remove(cache)
            except ValueError:
                pass
        cache.set_budget(None)

    # ------------------------------------------------------------ balancing
    def total_bytes(self) -> int:
        with self._lock:
            caches = list(self._caches)
        return sum(cache.approx_bytes for cache in caches)

    def rebalance(self) -> int:
        """Evict globally-LRU evictable entries until the sum fits; bytes freed.

        Each round picks the registered cache whose oldest evictable
        entry has the smallest recency tick (ticks come from one
        process-wide clock, so they are comparable across caches) and
        evicts exactly that entry.  Stops when under budget or when
        only pinned (volatile) entries remain.
        """
        if self.max_bytes is None:
            return 0
        freed_total = 0
        while True:
            with self._lock:
                caches = list(self._caches)
            total = sum(cache.approx_bytes for cache in caches)
            if total <= self.max_bytes:
                return freed_total
            victim = None
            victim_tick = None
            for cache in caches:
                tick = cache.lru_tick()
                if tick is not None and (victim_tick is None or tick < victim_tick):
                    victim, victim_tick = cache, tick
            if victim is None:
                return freed_total
            # The tick the victim was chosen by travels with the
            # eviction: if a hit refreshed the entry in between, the
            # cache no-ops (the comparison that made it the global LRU
            # no longer holds) and the next round re-picks.
            # Under the registry lock (budget lock → cache lock, the one
            # order used anywhere), and only if the victim is still
            # registered: ``caches`` is a snapshot, and a cache that was
            # unregistered since is out of this budget's reach — its late
            # puts must survive.
            with self._lock:
                freed = victim.evict_lru(victim_tick) if victim in self._caches else 0
            if freed <= 0:
                # Raced with a hit that refreshed the entry; try again —
                # unless nothing is evictable anymore.
                if all(cache.lru_tick() is None for cache in caches):
                    return freed_total
                continue
            freed_total += freed
            with self._lock:
                self.evictions += 1
                self.bytes_evicted += freed

    # ------------------------------------------------------------------ obs
    def stats(self) -> dict:
        """Byte totals and eviction counters, JSON-shaped for ``stats``."""
        with self._lock:
            caches = list(self._caches)
            evictions = self.evictions
            bytes_evicted = self.bytes_evicted
        return {
            "max_bytes": self.max_bytes,
            "total_bytes": sum(cache.approx_bytes for cache in caches),
            "caches": len(caches),
            "evictions": evictions,
            "bytes_evicted": bytes_evicted,
        }
