"""Deterministic multi-core shard execution.

The paper's approximation machinery is embarrassingly parallel: tuple
confidences are independent DNF weights (Section 4), the Proposition 4.2
trial budget m = ⌈3·|F|·ln(2/δ)/ε²⌉ is a sum of i.i.d. trials that can be
drawn in any partition, and the Theorem 6.7 driver hands every σ̂ value a
private round allocation.  The relational algebra under them is not
fanned out: its operators are parsimonious translations that never look
at W, so they run in process, and the cost lies in the confidence layer.
:class:`ShardExecutor` is the one execution path behind every fan-out:
it cuts a workload into *shards*, runs the shards on a process pool (or
serially, in process, when ``workers <= 1`` or multiprocessing is
unavailable), and merges results in shard order.  Every session and
server owns one (:func:`as_executor`) and makes it current in the run
scope of each request (:mod:`repro.util.scope`); calls made outside
every scope run on :data:`SERIAL_EXECUTOR` — there is no unsharded code
path.

Determinism is the hard contract, and it rests on two rules:

1. **The shard plan never looks at the worker count.**
   :meth:`ShardExecutor.plan_items` partitions a list as a function of
   its *length* and the executor's plan parameters only, so sessions
   opened with ``workers=1`` and ``workers=64`` cut identical shards.

2. **An item's randomness is a function of its position.**  Item ``i``
   of a fan-out list draws from ``shard_seed(base, i)``
   (:func:`shard_seed`, :func:`spawn_shard_rng` — the indexed analogue
   of :func:`repro.util.rng.spawn_rng`), where ``base`` is one draw from
   the caller's generator; never from its shard, pop order, completion
   order or worker identity.  A sampler's trial budget is cut by one
   fixed plan (:func:`plan_trials`) and drawn in the process that owns
   the item.

Together these make results *bit-identical* for every worker count and
every shard plan, including the serial in-process path: parallelism
and the plan parameters change wall-clock time, never answers.  (This
is also what makes the fallback safe — an environment without a pool
simply runs the same items serially and produces the same bits.)

**Start method.**  Pools start their workers with ``forkserver``, the
one start method; a platform without it runs the same shards serially,
in process (same bits, no parallelism).  A forkserver worker hashes
under its own seed, which is harmless: no answer depends on a hash
order (docs/determinism.md), so the workers need nothing from the
parent but the pickled task.  Forkserver launches by fork+exec, which
is safe in a process that already runs threads, so a threaded host may
create its pool at any time.

The pool is created lazily on the first genuinely parallel map
(:meth:`ShardExecutor.prestart` forces it early — servers call it
before taking traffic) and torn down by :meth:`close` or garbage
collection, so sessions that never shard never pay for a pool.
"""

from __future__ import annotations

import contextvars
import operator
import os
import pickle
import random
import threading
import weakref
from collections.abc import Callable, Sequence

__all__ = [
    "DEFAULT_MAX_SHARDS",
    "DEFAULT_MIN_SHARD_ITEMS",
    "DEFAULT_MIN_SHARD_TRIALS",
    "ShardExecutor",
    "plan_trials",
    "SERIAL_EXECUTOR",
    "as_executor",
    "shard_seed",
    "spawn_shard_rng",
    "default_workers",
]

DEFAULT_MAX_SHARDS = 16
"""Upper bound on shards per plan (worker-count independent)."""

DEFAULT_MIN_SHARD_ITEMS = 8
"""Fewest list items (e.g. per-tuple DNFs) worth a shard of their own."""

DEFAULT_MIN_SHARD_TRIALS = 4096
"""Fewest Monte-Carlo trials worth a block of their own (see :func:`plan_trials`)."""

_WORKERS_ENV = "REPRO_WORKERS"


def _splitmix64(x: int) -> int:
    """One splitmix64 output step — a cheap, well-mixed 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def shard_seed(base: int, index: int) -> int:
    """The seed of item (or trial block) ``index`` under batch entropy ``base``.

    A pure function of its arguments (no process state, no hash
    randomization), so every worker count — and every platform — derives
    the same stream for item (or block) ``index``.
    """
    return _splitmix64(_splitmix64(base) ^ _splitmix64(index + 1))


def spawn_shard_rng(base: int, index: int) -> random.Random:
    """An independent generator for item ``index`` (see :func:`shard_seed`).

    The indexed counterpart of :func:`repro.util.rng.spawn_rng`: the
    parent contributes ``base`` (one ``getrandbits(64)`` draw per batch),
    the item contributes its position, and the child stream depends on
    nothing else.
    """
    return random.Random(shard_seed(base, index))


def plan_trials(n_trials: int) -> list[int]:
    """Per-block trial counts for a budget of ``n_trials``: the one block plan.

    At most :data:`DEFAULT_MAX_SHARDS` blocks, none smaller than
    :data:`DEFAULT_MIN_SHARD_TRIALS`, sizes summing to exactly
    ``n_trials`` — the Proposition 4.2 budget is preserved, merely
    partitioned.  Block ``i`` of a budget draws from
    ``shard_seed(base, i)``; the blocks run in process, so the plan
    fixes the bits and nothing else.
    """
    if n_trials <= 0:
        return []
    blocks = min(DEFAULT_MAX_SHARDS, n_trials // DEFAULT_MIN_SHARD_TRIALS)
    if blocks <= 1:
        return [n_trials]
    base, extra = divmod(n_trials, blocks)
    return [base + (1 if i < extra else 0) for i in range(blocks)]


def default_workers() -> int:
    """The ambient worker count from ``REPRO_WORKERS`` (default 1).

    Lets a deployment (or a CI leg) give every session and server of a
    process a worker pool without touching call sites.  Unset, empty and
    ``0`` all mean one serial in-process executor; a negative or
    non-integer value is a loud error.
    """
    raw = os.environ.get(_WORKERS_ENV, "").strip()
    if not raw:
        return 1
    if not raw.isdigit():
        raise ValueError(
            f"{_WORKERS_ENV} must be a non-negative integer worker count, got {raw!r}"
        )
    return max(int(raw), 1)


def _checked_count(name: str, value: object, least: int) -> int:
    """``value`` as an int if it is an integer ≥ ``least`` and not a bool.

    Any integral type passes (``numpy.int64`` too, through
    :func:`operator.index`); floats, strings, bools and ``None`` raise
    ``ValueError``.  Checked at construction, so a bad worker count or
    plan parameter fails where it is given rather than inside the first
    pooled map.
    """
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or count < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
    return count


class ShardExecutor:
    """Deterministic shard-parallel map over a process pool.

    ``workers`` is the degree of parallelism: ``<= 1`` runs every shard
    serially in process (bit-identical to any parallel run, by the
    contract above).  The plan parameters (``max_shards``,
    ``min_shard_items``) set only how finely item lists are cut; every
    executor produces equal results.  Oversubscription is allowed —
    asking for four workers on one core is correct, just not faster.
    """

    def __init__(
        self,
        workers: int = 1,
        max_shards: int = DEFAULT_MAX_SHARDS,
        min_shard_items: int = DEFAULT_MIN_SHARD_ITEMS,
    ):
        self.workers = _checked_count("workers", workers, 0)
        self.max_shards = _checked_count("max_shards", max_shards, 1)
        self.min_shard_items = _checked_count("min_shard_items", min_shard_items, 1)
        self._pool = None
        self._pool_broken = False
        self._closed = False
        self._finalizer = None
        self._start_method = None
        # Sessions may be shared across threads; pool creation/teardown
        # must not race (two racing creators would leak a pool until GC).
        self._pool_lock = threading.Lock()

    # ----------------------------------------------------------- the plan
    def plan_items(self, n_items: int) -> list[tuple[int, int]]:
        """Contiguous ``[start, stop)`` shards over a list of ``n_items``.

        A function of ``n_items`` and the plan parameters only: at most
        ``max_shards`` shards, none smaller than ``min_shard_items``
        (sizes differ by at most one).
        """
        if n_items <= 0:
            return []
        shards = min(self.max_shards, n_items // self.min_shard_items)
        if shards <= 1:
            return [(0, n_items)]
        base, extra = divmod(n_items, shards)
        bounds = [0]
        for i in range(shards):
            bounds.append(bounds[-1] + base + (1 if i < extra else 0))
        return list(zip(bounds, bounds[1:]))

    # ------------------------------------------------------------ running
    @property
    def parallel(self) -> bool:
        """Whether maps may actually fan out to worker processes."""
        return self.workers >= 2 and not self._pool_broken and not self._closed

    @property
    def start_method(self) -> str | None:
        """Start method of the live pool (``None`` until one is created)."""
        return self._start_method

    def prestart(self) -> bool:
        """Create the worker pool now; ``True`` if it came up parallel.

        The lazy default creates the pool on the first sharded map; a
        server calls this before taking traffic, so the forkserver and
        its first worker start off the request path instead of on a
        tenant's query.  The round-trip task both forces them to spawn
        and proves the pool answers.
        """
        if not self.parallel:
            return False
        pool = self._ensure_pool()
        if pool is None:
            return False
        try:
            pool.submit(os.getpid).result()
        except BaseException:
            self._discard_pool(broken=True)
            return False
        return True

    def map_items(self, fn: Callable, items: Sequence, *args) -> list:
        """``fn(items[start:stop], *args)`` per :meth:`plan_items` shard, flattened.

        The one "cut a list, map the shards, concatenate in shard order"
        schedule behind every list-shaped fan-out (strategy batches,
        bound batches, top-k rounds, σ̂ candidates).  ``fn`` returns one
        result per item; an item that samples carries its own positional
        seed, so the cut never reaches an answer.  Runs through
        :meth:`map`, so the same fallbacks apply.
        """
        tasks = [
            (items[start:stop], *args) for start, stop in self.plan_items(len(items))
        ]
        return [result for shard in self.map(fn, tasks) for result in shard]

    def map(self, fn: Callable, tasks: Sequence[tuple], validate: bool = True) -> list:
        """``[fn(*args) for args in tasks]``, one task per shard.

        Results come back in task order regardless of completion order.
        Every task runs outside the caller's run scope, in a pool worker
        or in process alike (:func:`_outside_scope`), so its nested calls
        see the serial scope whatever the worker count or start method.
        ``fn`` must be a module-level function and its arguments
        picklable; unpicklable workloads (exotic user-defined variable
        names) quietly run the serial path instead — same results, by
        the determinism contract.  Exceptions raised *by the task* are
        propagated.  ``validate`` is accepted for call compatibility and
        ignored: every pooled map runs the pickle dry run.
        """
        tasks = list(tasks)
        if len(tasks) <= 1 or not self.parallel:
            return [_outside_scope(fn, *args) for args in tasks]
        # Validate picklability up front and never hand the pool an
        # unpicklable item: CPython's pool wedges its manager thread
        # when queued work items fail to pickle (observed on 3.11),
        # so an unpicklable workload (e.g. a strategy holding a lock)
        # must take the serial path *before* submission — same
        # answers, by the plan/seed contract.  This also keeps
        # genuine task exceptions unambiguous: anything raised after
        # this point is from the task.
        try:
            for args in tasks:
                pickle.dumps((fn, args), protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError):
            return [_outside_scope(fn, *args) for args in tasks]
        pool = self._ensure_pool()
        if pool is None:
            return [_outside_scope(fn, *args) for args in tasks]
        from concurrent.futures.process import BrokenProcessPool

        futures = []
        try:
            futures = [pool.submit(_outside_scope, fn, *args) for args in tasks]
            return [f.result() for f in futures]
        except (BrokenProcessPool, OSError):
            # A broken pool degrades this executor to serial for good.
            self._drain(futures)
            self._discard_pool(broken=True)
            return [_outside_scope(fn, *args) for args in tasks]

    @staticmethod
    def _drain(futures) -> None:
        """Await every future, swallowing outcomes, before pool teardown.

        ``shutdown(wait=True, cancel_futures=True)`` can deadlock the
        CPython 3.11 pool manager when it races a work item still in
        flight; each future of a broken pool is marked with its
        exception promptly, so consuming them all first makes the
        waiting shutdown safe.
        """
        for future in futures:
            try:
                future.result()
            except BaseException:
                pass

    def _ensure_pool(self):
        with self._pool_lock:
            if self._pool is not None:
                return self._pool
            if self._pool_broken or self._closed:
                return None
            try:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                # No forkserver on this platform: ValueError, stay serial.
                context = multiprocessing.get_context("forkserver")
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context
                )
                self._start_method = "forkserver"
            except (ImportError, OSError, ValueError):
                self._pool_broken = True
                return None
            self._finalizer = weakref.finalize(self, _shutdown_pool, self._pool)
            return self._pool

    def _discard_pool(self, broken: bool = False) -> None:
        with self._pool_lock:
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            if self._pool is not None:
                _shutdown_pool(self._pool)
                self._pool = None
            self._pool_broken = self._pool_broken or broken

    def close(self) -> None:
        """Shut the worker pool down (maps keep working, serially)."""
        self._closed = True
        self._discard_pool()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ShardExecutor(workers={self.workers}, max_shards={self.max_shards})"


SERIAL_EXECUTOR = ShardExecutor()
"""The process-wide serial executor (default plan, never owns a pool).

Calls made outside every run scope run on it, so they execute the same
plan → map → merge code as a session — which is also what a shard
kernel's nested calls get: one worker's work stays in that worker."""


def _outside_scope(fn: Callable, *args):
    """``fn(*args)`` in an empty context, where no run scope is current.

    An in-process task shares the caller's context, so without this it
    would find the caller's (possibly pooled) executor, while a pool
    worker would not.  Module level, so the pool pickles it.
    """
    return contextvars.Context().run(fn, *args)


def as_executor(workers: "int | ShardExecutor | None") -> tuple[ShardExecutor, bool]:
    """Coerce a ``workers`` argument to ``(executor, owned)``.

    The one rule for :func:`repro.connect` and :func:`repro.serve`: a
    :class:`ShardExecutor` is borrowed as-is (``owned`` false — its
    creator closes it), an int builds an owned executor, and ``None``
    means :func:`default_workers`.
    """
    if isinstance(workers, ShardExecutor):
        return workers, False
    return ShardExecutor(default_workers() if workers is None else workers), True


def _shutdown_pool(pool) -> None:
    # wait=True: workers are idle by the time an executor is torn down,
    # so the join is immediate — and a non-waiting shutdown can leave the
    # management thread in a state that deadlocks interpreter exit after
    # a failed work-item pickle.
    pool.shutdown(wait=True, cancel_futures=True)
