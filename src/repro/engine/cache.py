"""Per-session memoization of query and confidence computations.

Confidence is the expensive half of the system (#P in general), and
interactive sessions recompute the same subresults constantly — the
Example 2.2 posterior alone evaluates ``conf`` over the same T twice.
The engine therefore memoizes

* whole query evaluations, keyed on (query fingerprint, database
  version, W-table version), and
* per-tuple confidence computations, keyed on (the tuple's clause set,
  W-table version, strategy name),

where the version counters (see :class:`repro.urel.udatabase.UDatabase`
and :class:`repro.urel.variables.VariableTable`) bump on every mutation,
so a cache entry can never outlive the state it was computed against.

Query fingerprints are derived from the printer's canonical text (the
same notion of plan equivalence the round-trip tests use) plus the
``op_id`` sequence of repair-key nodes — two structurally identical
repair-keys with different ``op_id`` introduce *different* random
variables and must not share an entry.

Entries also carry an **approximate byte size** (:func:`approx_size`),
surfaced as ``CacheStats.approx_bytes`` and through
``ProbDB.cache_stats``.  That is the accounting hook the serving
layer's global cache budget (:mod:`repro.server.budget`) needs: a
server multiplexing many sessions registers each session's cache with
one :class:`~repro.server.budget.CacheBudget` and evicts *across* the
caches, globally least-recently-used first, until the summed
``approx_bytes`` fits the budget.  Recency is therefore tracked on a
process-wide clock (:func:`_next_tick`), not per cache.  Sizing is paid
**on demand**: ``put`` sizes an entry only while a budget is attached.
Otherwise the first read of ``approx_bytes``/``stats``/``snapshot()``,
``evict_lru`` or ``set_budget`` sizes it, once, at what it holds by
then (a cached relation may have grown lazy indexes since the put).
A holder that knows its value grew (a columnar query result that built
its decode) calls ``resize``.

**Volatile entries.**  ``put(..., volatile=True)`` marks an entry whose
recomputation would consume session RNG state (a sampled confidence, or
a query evaluation that drew trials).  A cross-session evictor must
leave those in place: evicting one would make the next identical
request redraw from a *later* stream position, so the session's answers
would start depending on other tenants' cache pressure — breaking the
serving layer's determinism contract.  Volatile entries still count
toward ``approx_bytes`` and still participate in the session-local
``maxsize`` LRU (which replays identically in any serial rerun of the
same session, so it is deterministic by construction).
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import threading
from collections import OrderedDict, deque

from repro.algebra.operators import Query, RepairKey, walk
from repro.algebra.printer import unparse_query

__all__ = ["query_fingerprint", "MemoCache", "CacheStats", "approx_size"]

# One process-wide recency clock: entries across *all* caches are
# comparable by tick, which is what global (cross-session) LRU eviction
# orders by.  ``itertools.count`` advances atomically under the GIL.
_RECENCY = itertools.count(1)


def _next_tick() -> int:
    return next(_RECENCY)


def query_fingerprint(node: Query) -> str:
    """Stable fingerprint of a query plan (repair-key identities included)."""
    try:
        text = unparse_query(node)
    except TypeError:
        # Plans outside the surface syntax (exotic literal scalars):
        # dataclass reprs are deterministic within a process, which is all
        # a per-session cache needs.
        text = repr(node)
    op_ids = ",".join(str(q.op_id) for q in walk(node) if isinstance(q, RepairKey))
    return hashlib.sha256(f"{text}|rk:{op_ids}".encode()).hexdigest()


_ATOMIC = (str, bytes, bytearray, int, float, complex, bool, type(None))

_SIZE_NODE_CAP = 4096
"""Traversal cap per :func:`approx_size` call.

Estimation runs on a caller's put or read, so it must stay cheap even
for pathological values; past the cap the estimate is a documented
*under*count (still monotone enough for budget eviction, which only
needs relative magnitudes)."""


def approx_size(obj, max_nodes: int = _SIZE_NODE_CAP) -> int:
    """Approximate deep size of ``obj`` in bytes.

    A best-effort recursive ``sys.getsizeof`` walk: containers and
    object ``__dict__``/``__slots__`` attributes are followed, shared
    subobjects are counted once *per call* (id-memoized), and traversal
    counts at most ``max(1, max_nodes)`` objects — the cap is inclusive
    (the object that reaches it is still counted), and the root is
    always counted, so no value ever reports 0 bytes.  NumPy arrays
    report their buffer through ``getsizeof`` already.  The result is
    an estimate — interned conditions shared between entries are
    charged to each entry — which is exactly what a fairness-oriented
    budget wants: every entry pays for what it keeps alive.  What the
    session keeps alive anyway is not the entry's: below the root, a
    :class:`~repro.urel.columnar.ColumnarContext` (the codecs and
    condition pool every columnar relation of a database shares) is
    neither counted nor walked.
    """
    from repro.urel.columnar import ColumnarContext

    seen: set[int] = set()
    stack = [obj]
    total = 0
    budget = max_nodes
    while stack:
        o = stack.pop()
        oid = id(o)
        if oid in seen or (o is not obj and isinstance(o, ColumnarContext)):
            continue
        seen.add(oid)
        try:
            total += sys.getsizeof(o)
        except TypeError:  # pragma: no cover - exotic getsizeof overrides
            total += 64
        budget -= 1
        if budget <= 0:
            break
        if isinstance(o, _ATOMIC):
            continue
        if isinstance(o, dict):
            stack.extend(o.keys())
            stack.extend(o.values())
            continue
        if isinstance(o, (list, tuple, set, frozenset, deque)):
            stack.extend(o)
            continue
        if isinstance(o, type) or callable(o):
            continue
        d = getattr(o, "__dict__", None)
        if d is not None:
            stack.append(d)
        for klass in type(o).__mro__:
            slots = klass.__dict__.get("__slots__", ())
            if isinstance(slots, str):
                slots = (slots,)
            for name in slots:
                try:
                    stack.append(getattr(o, name))
                except AttributeError:
                    pass
    return total


class CacheStats:
    """Hit/miss/size counters, exposed through ``ProbDB.cache_stats``.

    ``approx_bytes`` is the summed :func:`approx_size` of the live
    entries (keys and values) — the observability hook the global
    cache-budget evictor consumes, useful standalone for sizing
    ``maxsize`` against real workloads.  Read it through
    :attr:`MemoCache.stats`, which sizes pending entries first.
    """

    __slots__ = ("hits", "misses", "entries", "approx_bytes")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.entries = 0
        self.approx_bytes = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "approx_bytes": self.approx_bytes,
        }

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"entries={self.entries}, approx_bytes={self.approx_bytes})"
        )


class _Entry:
    __slots__ = ("value", "nbytes", "tick", "volatile")

    def __init__(self, value, nbytes: int | None, tick: int, volatile: bool):
        self.value = value
        self.nbytes = nbytes
        self.tick = tick
        self.volatile = volatile


class MemoCache:
    """A bounded mapping with hit/miss and byte accounting (LRU eviction).

    A hit refreshes the entry's recency, so a hot confidence entry (the
    posterior a dashboard asks for every few seconds) survives arbitrary
    churn of one-off queries; eviction removes the *least recently used*
    entry, not merely the oldest inserted.

    All operations hold one internal lock: sessions may be shared across
    threads (a threaded server over one :class:`~repro.engine.probdb.ProbDB`),
    and an unsynchronized ``move_to_end``/``popitem`` pair can corrupt
    the underlying ordered dict mid-eviction.  The lock covers the stats
    counters too, so hit/miss accounting stays consistent.

    Every entry carries its byte size (``None`` until sized) and a
    process-wide recency tick; :meth:`lru_tick`/:meth:`evict_lru` are
    the primitives a :class:`~repro.server.budget.CacheBudget` uses to
    evict globally LRU across many sessions' caches.  A budget attached with
    :meth:`set_budget` is poked (outside the cache lock — the budget
    takes its own lock and calls back into caches, so ordering is
    always budget → cache) after every insertion that grows the cache.
    """

    def __init__(self, maxsize: int | None = 1024):
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()  # detlint: guarded-by(_lock)
        self._stats = CacheStats()  # detlint: guarded-by(_lock)
        self._pending = False  # detlint: guarded-by(_lock)
        self._lock = threading.Lock()
        self._budget = None

    @property
    def enabled(self) -> bool:
        return self.maxsize is None or self.maxsize > 0

    @property
    def stats(self) -> CacheStats:
        """The live counters, every pending entry sized first."""
        with self._lock:
            self._settle()
            return self._stats

    def snapshot(self) -> dict[str, int]:
        """The counters as a dict, sized and read under one lock hold."""
        with self._lock:
            self._settle()
            return self._stats.as_dict()

    @property
    def approx_bytes(self) -> int:
        """Summed approximate size of the live entries, in bytes."""
        return self.snapshot()["approx_bytes"]

    def _settle(self) -> None:  # detlint: holds(_lock)
        """Size, once, every entry put while no budget was attached."""
        if self._pending:
            for key, entry in self._data.items():
                if entry.nbytes is None:
                    entry.nbytes = approx_size(key) + approx_size(entry.value)
                    self._stats.approx_bytes += entry.nbytes
            self._pending = False

    def set_budget(self, budget) -> None:
        """Attach/detach the global budget poked after growing puts.

        Synchronized with :meth:`put`'s read of the attachment: a put
        that starts after a detach returns can never poke the old
        budget (see :meth:`~repro.server.budget.CacheBudget.unregister`
        for the ordering that makes in-flight pokes harmless too).
        Pending entries are sized first: no budget sees an unsized one.
        """
        with self._lock:
            self._settle()
            self._budget = budget

    def get(self, key):
        """The cached value, or ``None`` (misses are counted)."""
        with self._lock:
            try:
                entry = self._data[key]
            except KeyError:
                self._stats.misses += 1
                return None
            self._data.move_to_end(key)
            entry.tick = _next_tick()
            self._stats.hits += 1
            return entry.value

    def put(self, key, value, volatile: bool = False) -> None:
        """Insert ``key -> value``; ``volatile`` pins it against *global*
        eviction (see the module docstring — recomputing it would draw
        from the session RNG)."""
        if self.maxsize is not None and self.maxsize <= 0:
            return
        # Only a budget reads sizes (walked unlocked; re-checked locked).
        nbytes = approx_size(key) + approx_size(value) if self._budget is not None else None
        with self._lock:
            if nbytes is None and self._budget is not None:
                nbytes = approx_size(key) + approx_size(value)
            old = self._data.pop(key, None)
            if old is None and self.maxsize is not None and len(self._data) >= self.maxsize:
                _, old = self._data.popitem(last=False)
            if old is not None and old.nbytes is not None:
                self._stats.approx_bytes -= old.nbytes
            self._data[key] = _Entry(value, nbytes, _next_tick(), volatile)
            self._pending |= nbytes is None
            self._stats.approx_bytes += nbytes or 0
            self._stats.entries = len(self._data)
            # Read the attachment under the same lock set_budget writes
            # it: a put racing a detach either sees None (no poke) or
            # the budget it was attached to at insertion time.  The
            # poke itself stays outside the lock (ordering is always
            # budget lock → cache lock, never the reverse).
            budget = self._budget
        if budget is not None:
            budget.rebalance()

    def resize(self, key) -> None:
        """Size ``key``'s entry again: its value grew in place (a lazy part
        attached after the put).  Under a budget it is sized now and the
        budget poked; otherwise on demand, like an entry put unsized."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None or entry.nbytes is None:
                return
            self._stats.approx_bytes -= entry.nbytes
            entry.nbytes = None
            self._pending = True
            budget = self._budget
            if budget is not None:
                self._settle()
        if budget is not None:
            budget.rebalance()

    def lru_tick(self) -> int | None:
        """Recency tick of the least-recent *evictable* entry, or ``None``.

        Volatile entries are skipped: the global evictor compares this
        across caches to find the globally least-recently-used entry.
        """
        with self._lock:
            for entry in self._data.values():
                if not entry.volatile:
                    return entry.tick
            return None

    def evict_lru(self, expected_tick: int | None = None) -> int:
        """Evict the least-recent non-volatile entry; bytes freed (0 = none).

        ``expected_tick`` guards against the choose/evict race: the
        global evictor picks its victim cache by :meth:`lru_tick`, and a
        hit landing between that read and this call refreshes the entry
        (new tick, moved to the back) — evicting whatever is oldest *now*
        would remove an entry the tick comparison never justified.  When
        the current LRU entry's tick differs from ``expected_tick`` this
        is a no-op returning 0, and the caller re-picks its victim.
        """
        with self._lock:
            self._settle()
            evictable = ((k, e) for k, e in self._data.items() if not e.volatile)
            key, entry = next(evictable, (None, None))
            if entry is None or (expected_tick is not None and entry.tick != expected_tick):
                return 0
            del self._data[key]
            self._stats.approx_bytes -= entry.nbytes
            self._stats.entries = len(self._data)
            return entry.nbytes

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._pending = False
            self._stats.entries = 0
            self._stats.approx_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)
