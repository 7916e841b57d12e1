"""Deterministic multi-core shard execution.

The paper's approximation machinery is embarrassingly parallel: tuple
confidences are independent DNF weights (Section 4), the Proposition 4.2
trial budget m = ⌈3·|F|·ln(2/δ)/ε²⌉ is a sum of i.i.d. trials that can be
drawn in any partition, and the Theorem 6.7 driver hands every σ̂ value a
private round allocation.  So is the relational layer under them: the
columnar algebra's product/join pair merges already run in bounded row
blocks, and those blocks are independent subproblems too.
:class:`ShardExecutor` is the one execution path behind all of them:
it cuts a workload into *shards*, runs the shards on a process pool (or
serially, in process, when ``workers <= 1`` or multiprocessing is
unavailable), and merges results in shard order.  Every session and
server owns one (:func:`as_executor`), and library calls made without
one run on :data:`SERIAL_EXECUTOR` — there is no unsharded code path.

Determinism is the hard contract, and it rests on two rules:

1. **The shard plan never looks at the worker count.**
   :meth:`ShardExecutor.plan_items`, :meth:`ShardExecutor.plan_trials`,
   and :meth:`ShardExecutor.plan_pairs` partition a workload as a
   function of its *size* and the executor's plan parameters only, so
   sessions opened with ``workers=1`` and ``workers=64`` cut identical
   shards.

2. **Each shard's randomness is a function of its shard index.**
   :func:`spawn_shard_rng` derives the shard's generator from
   ``(base entropy, shard index)`` — the indexed analogue of
   :func:`repro.util.rng.spawn_rng` — never from pop order, completion
   order, or worker identity.

Together these make sharded results *bit-identical* for every worker
count, including the serial in-process path: parallelism changes
wall-clock time, never answers.  (This is also what makes the fallback
safe — an environment that cannot fork simply runs the same shards
serially and produces the same bits.)  The plan parameters are part of
the determinism contract: :attr:`ShardExecutor.plan_token` names them so
memoization layers can key results on the merge schedule.

**Start method.**  Worker processes need the *parent's* hash seed:
shard kernels iterate sets whose order is hash-dependent (Shannon
expansion sums, clause walks), so a worker hashing differently from the
serial in-process path could emit different float-accumulation bits and
break the contract.  :func:`pool_start_method` picks the safest start
method that preserves seed agreement:

* ``forkserver`` — used whenever ``PYTHONHASHSEED`` is pinned in the
  environment (any integer value).  The forkserver process inherits the
  environment, so it and every worker it forks initialize with the
  *same, known* hash seed as the parent — the explicit hash-seed
  handoff.  Forkserver launches by fork+exec, which is safe in a
  process that already runs threads: this is the start method for
  async/threaded servers (:mod:`repro.server` prestarts the pool), and
  it removes the old "run one sharded workload before spawning
  threads" ordering rule entirely.
* ``fork`` — the fallback when the parent's hash seed is randomized
  and therefore *unknowable* (CPython never exposes it): forked
  children inherit the seed byte-for-byte.  Fork keeps the historical
  caveat — forking a process that already runs many threads can
  inherit locks held mid-operation — so threaded callers should either
  pin ``PYTHONHASHSEED`` (getting forkserver) or run one sharded
  workload before spawning threads.
* serial — platforms with neither method (or broken pools) run the
  same shards in process: same bits, no parallelism.

The pool is created lazily on the first genuinely parallel map
(:meth:`ShardExecutor.prestart` forces it early — servers call it
before taking traffic) and torn down by :meth:`close` or garbage
collection, so sessions that never shard never pay for a pool.
"""

from __future__ import annotations

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
    "DEFAULT_MIN_SHARD_PAIRS",
    "ShardExecutor",
    "SERIAL_EXECUTOR",
    "as_executor",
    "shard_seed",
    "spawn_shard_rng",
    "default_workers",
    "pool_start_method",
]

DEFAULT_MAX_SHARDS = 16
"""Upper bound on shards per plan (worker-count independent)."""

DEFAULT_MIN_SHARD_ITEMS = 8
"""Fewest list items (e.g. per-tuple DNFs) worth a shard of their own."""

DEFAULT_MIN_SHARD_TRIALS = 4096
"""Fewest Monte-Carlo trials worth a block of their own."""

DEFAULT_MIN_SHARD_PAIRS = 1 << 18
"""Fewest columnar pair-merge candidate pairs worth a shard of their own.

A pair costs a few dozen int64 cell operations in the vectorized merge,
so 2¹⁸ pairs is tens of milliseconds of work — enough to amortize one
task dispatch (pickling the base code matrices plus the shard's pair
index slice) comfortably."""

_WORKERS_ENV = "REPRO_WORKERS"


def _splitmix64(x: int) -> int:
    """One splitmix64 output step — a cheap, well-mixed 64-bit hash."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def shard_seed(base: int, index: int) -> int:
    """The seed of shard ``index`` under batch entropy ``base``.

    A pure function of its arguments (no process state, no hash
    randomization), so every worker count — and every platform — derives
    the same per-shard stream.
    """
    return _splitmix64(_splitmix64(base) ^ _splitmix64(index + 1))


def spawn_shard_rng(base: int, index: int) -> random.Random:
    """An independent generator for shard ``index`` (see :func:`shard_seed`).

    The indexed counterpart of :func:`repro.util.rng.spawn_rng`: the
    parent contributes ``base`` (one ``getrandbits(64)`` draw per batch),
    the shard contributes its index, and the child stream depends on
    nothing else.
    """
    return random.Random(shard_seed(base, index))


def pool_start_method() -> str | None:
    """The multiprocessing start method shard pools will use, or ``None``.

    ``forkserver`` when the hash seed is knowable (``PYTHONHASHSEED``
    pinned to an integer in the environment — the forkserver and its
    workers then re-derive the same seed from the inherited
    environment, and fork+exec is thread-safe); ``fork`` when the seed
    is randomized and only inheritance can reproduce it; ``None`` when
    neither method exists (the executor stays serial).  A pure function
    of the environment, exposed so deployments can assert which regime
    their configuration lands in.
    """
    try:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
    except ImportError:  # pragma: no cover - no multiprocessing at all
        return None
    seed = os.environ.get("PYTHONHASHSEED", "")
    if seed.isdigit() and "forkserver" in methods:
        return "forkserver"
    if "fork" in methods:
        return "fork"
    return None


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


class ShardExecutor:
    """Deterministic shard-parallel map over a process pool.

    ``workers`` is the degree of parallelism: ``<= 1`` runs every shard
    serially in process (bit-identical to any parallel run, by the plan
    contract above).  The plan parameters (``max_shards``,
    ``min_shard_items``, ``min_shard_trials``) shape how workloads are
    cut; two executors with equal plan parameters produce equal results
    at any worker counts.  Oversubscription is allowed — asking for four
    workers on one core is correct, just not faster.
    """

    def __init__(
        self,
        workers: int = 1,
        max_shards: int = DEFAULT_MAX_SHARDS,
        min_shard_items: int = DEFAULT_MIN_SHARD_ITEMS,
        min_shard_trials: int = DEFAULT_MIN_SHARD_TRIALS,
        min_shard_pairs: int = DEFAULT_MIN_SHARD_PAIRS,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if min(max_shards, min_shard_items, min_shard_trials, min_shard_pairs) < 1:
            raise ValueError("shard plan parameters must be >= 1")
        self.workers = workers
        self.max_shards = max_shards
        self.min_shard_items = min_shard_items
        self.min_shard_trials = min_shard_trials
        self.min_shard_pairs = min_shard_pairs
        self._pool = None
        self._pool_broken = False
        self._closed = False
        self._finalizer = None
        self._start_method = None
        # Sessions may be shared across threads; pool creation/teardown
        # must not race (two racing creators would leak a pool until GC).
        self._pool_lock = threading.Lock()

    # ----------------------------------------------------------- the plan
    @property
    def plan_token(self) -> tuple:
        """Hashable identity of the merge schedule (NOT the worker count).

        Results depend on how work is *cut*, never on how many workers
        run the cuts, so the token names only the plan parameters.  Memo
        caches include it so estimates computed under different schedules
        never share an entry.
        """
        return (
            "shards",
            self.max_shards,
            self.min_shard_items,
            self.min_shard_trials,
            self.min_shard_pairs,
        )

    def plan_ranges(self, n: int, min_size: int) -> list[tuple[int, int]]:
        """Contiguous ``[start, stop)`` shards over a range of ``n`` units.

        The shared schedule behind :meth:`plan_items` and
        :meth:`plan_pairs`: a function of ``n``, ``min_size``, and
        ``max_shards`` only — at most ``max_shards`` shards, none
        smaller than ``min_size`` (sizes differ by at most one).
        """
        if n <= 0:
            return []
        shards = min(self.max_shards, n // max(1, min_size))
        if shards <= 1:
            return [(0, n)]
        base, extra = divmod(n, shards)
        bounds = [0]
        for i in range(shards):
            bounds.append(bounds[-1] + base + (1 if i < extra else 0))
        return list(zip(bounds, bounds[1:]))

    def plan_items(self, n_items: int) -> list[tuple[int, int]]:
        """Contiguous ``[start, stop)`` shards over a list of ``n_items``.

        A function of ``n_items`` and the plan parameters only: at most
        ``max_shards`` shards, none smaller than ``min_shard_items``
        (sizes differ by at most one).
        """
        return self.plan_ranges(n_items, self.min_shard_items)

    def plan_pairs(self, n_pairs: int) -> list[tuple[int, int]]:
        """Contiguous ``[start, stop)`` shards over candidate row pairs.

        The columnar algebra's schedule for *indexed* pair merges (join
        candidates): a function of the pair count — never the worker
        count — and the plan parameters only, with ``min_shard_pairs``
        as the profitable minimum.  One shard means "stay serial": below
        the threshold the vectorized merge is cheaper than a single task
        dispatch.
        """
        return self.plan_ranges(n_pairs, self.min_shard_pairs)

    def plan_all_pairs(self, n_left: int, n_right: int) -> list[tuple[int, int]]:
        """Left-row shard ranges for an all-pairs (product) merge.

        Products never materialize their pair index arrays, so the shard
        unit is a contiguous *left-row* range covering at least
        ``min_shard_pairs`` pairs (``ceil(min_shard_pairs / n_right)``
        rows).  Defined here — next to :meth:`plan_pairs` — so the
        runtime operator and the ``explain`` cost model consult one
        schedule and can never disagree about what fans out.
        """
        if n_right <= 0:
            return []
        return self.plan_ranges(n_left, -(-self.min_shard_pairs // n_right))

    def plan_trials(self, n_trials: int) -> list[int]:
        """Per-block trial counts for a budget of ``n_trials``.

        Same contract as :meth:`plan_items`: at most ``max_shards``
        blocks, none smaller than ``min_shard_trials``, sizes summing to
        exactly ``n_trials`` — the Proposition 4.2 budget is preserved,
        merely partitioned.
        """
        if n_trials <= 0:
            return []
        blocks = min(self.max_shards, n_trials // self.min_shard_trials)
        if blocks <= 1:
            return [n_trials]
        base, extra = divmod(n_trials, blocks)
        return [base + (1 if i < extra else 0) for i in range(blocks)]

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

        The lazy default creates the pool on the first sharded map, but
        a *threaded* host (the async serving layer) wants it earlier:
        under the ``fork`` start method the pool must fork before user
        threads exist, and even under ``forkserver`` warming the first
        worker off the request path avoids paying cold-start latency on
        a tenant's query.  The round-trip task both forces the
        forkserver/worker to spawn and proves the pool answers.
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

    def map_items(
        self, fn: Callable, items: Sequence, *args, seed_base: int | None = None
    ) -> list:
        """``fn(items[start:stop], *args)`` per :meth:`plan_items` shard, flattened.

        The one "cut a list, map the shards, concatenate in shard order"
        schedule behind every list-shaped fan-out (strategy batches,
        bound batches, top-k rounds, σ̂ candidates).  ``fn`` returns one
        result per item.  With ``seed_base`` each call also receives
        ``shard_seed(seed_base, shard index)`` as its last argument.
        Runs through :meth:`map`, so the same fallbacks apply.
        """
        tasks = [
            (items[start:stop], *args) for start, stop in self.plan_items(len(items))
        ]
        if seed_base is not None:
            tasks = [
                task + (shard_seed(seed_base, i),) for i, task in enumerate(tasks)
            ]
        return [result for shard in self.map(fn, tasks) for result in shard]

    def map(self, fn: Callable, tasks: Sequence[tuple], validate: bool = True) -> list:
        """``[fn(*args) for args in tasks]``, one task per shard.

        Results come back in task order regardless of completion order.
        ``fn`` must be a module-level function and its arguments
        picklable; unpicklable workloads (exotic user-defined variable
        names) quietly run the serial path instead — same results, by
        the determinism contract.  Exceptions raised *by the task* are
        propagated.

        ``validate=False`` skips the up-front pickle dry run.  The dry
        run costs one extra serialization of every task, which the
        columnar algebra — whose tasks are pure int64 code matrices and
        index slices, picklable by construction — does not want to pay
        per pair-merge.  Callers passing arbitrary user data (strategy
        instances, user-defined variable names) must keep the default.
        """
        tasks = list(tasks)
        if len(tasks) <= 1 or not self.parallel:
            return [fn(*args) for args in tasks]
        if validate:
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
                return [fn(*args) for args in tasks]
        pool = self._ensure_pool()
        if pool is None:
            return [fn(*args) for args in tasks]
        from concurrent.futures.process import BrokenProcessPool

        futures = []
        try:
            futures = [pool.submit(fn, *args) for args in tasks]
            return [f.result() for f in futures]
        except (pickle.PicklingError, TypeError, AttributeError):
            # ``submit`` never pickles synchronously — a work item that
            # fails to pickle surfaces *here*, raised out of
            # ``f.result()`` by the pool's feeder machinery.  Under
            # ``validate=True`` every task pickled in the dry run, so
            # this is the task's own exception: propagate it.  Under
            # ``validate=False`` a caller broke its "picklable by
            # construction" promise; tasks are pure, so recompute
            # serially (a genuine task exception re-raises identically
            # there) — and retire the pool, which cannot be trusted
            # after a failed work-item pickle.
            if validate:
                raise
            self._drain(futures)
            self._discard_pool(broken=True)
            return [fn(*args) for args in tasks]
        except (BrokenProcessPool, OSError):
            # A broken pool degrades this executor to serial for good.
            self._drain(futures)
            self._discard_pool(broken=True)
            return [fn(*args) for args in tasks]

    @staticmethod
    def _drain(futures) -> None:
        """Await every future, swallowing outcomes, before pool teardown.

        ``shutdown(wait=True, cancel_futures=True)`` deadlocks the
        CPython 3.11 pool manager when it races a work item whose
        *pickle* failure is still in flight (reproduced in the test
        suite); each such future is marked with its exception promptly,
        so consuming them all first makes the waiting shutdown safe.
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
            method = pool_start_method()
            if method is None:
                # No fork-family start method on this platform: stay serial.
                self._pool_broken = True
                return None
            try:
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor

                context = multiprocessing.get_context(method)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context
                )
                self._start_method = method
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

Library entry points called without an ``executor`` run on it, so they
execute the same plan → map → merge code as a session — which is also
what a shard kernel's nested calls get: one worker's work stays in
that worker."""


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
