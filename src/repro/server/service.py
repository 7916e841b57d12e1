"""The async serving front end: many sessions, one shared shard pool.

:func:`serve` turns a database into a :class:`Server` — an asyncio
object that hosts many concurrent :class:`~repro.engine.probdb.ProbDB`
sessions for many tenants over **one** shared
:class:`~repro.util.parallel.ShardExecutor` and **one** global cache
byte budget.  An in-process :class:`Client` speaks the JSON protocol of
:mod:`repro.server.protocol` to it::

    server = repro.serve({"Coins": coins, "Faces": faces}, workers=2)

    async def main():
        client = Client(server, tenant="analytics")
        session = await client.open_session(seed=7)
        rows = await session.query("project[CoinType](Coins)")
        conf = await session.confidence_all("conf[P](R)")
        await session.close()
        await server.aclose()

The moving parts, and who runs on which thread:

* **Event loop (one thread).**  All of :meth:`Server.handle`, the
  :class:`~repro.server.scheduler.FairShareScheduler`, admission
  timers, and dispatch bookkeeping.  The scheduler is driven from this
  thread only, so it needs no locks.
* **Compute threads.**  Dispatched jobs run their blocking engine call
  (``db.query`` etc.) on a thread pool sized to the global in-flight
  cap.  The scheduler's per-session serialization guarantees at most
  one thread touches a session at a time, so sessions need no internal
  locking either.
* **Shard workers.**  Sessions *borrow* the server's one
  ``ShardExecutor`` — closing a session never degrades its siblings,
  and the pool is prestarted in ``__init__``, before any compute
  thread exists (the fork-safety ordering; under ``forkserver`` it is
  belt and braces).

**Determinism.**  A session's answers are a function of (database,
seed, strategy, request sequence) — never of scheduling.  Three
mechanisms carry that through concurrency: per-session FIFO execution
(scheduler), volatile cache entries pinned against the global budget
evictor (so another tenant's memory pressure cannot shift a session's
sampled stream — see :mod:`repro.server.budget`), and the shared
executor's worker-count-independent shard plans.  The soak tests
assert the result: bit-identical answers against fresh serial replays.

**Fairness and back-pressure.**  Compute ops pass admission control:
a full tenant queue rejects with ``quota-exceeded`` immediately, and a
queued request that waits past ``admission_timeout`` fails with
``admission-timeout``.  Control ops (open/close/stats) never queue.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor

from repro.engine.probdb import ProbDB
from repro.server.budget import CacheBudget
from repro.server.protocol import (
    AdmissionTimeoutError,
    ProtocolError,
    QueryError,
    QuotaExceededError,
    ServerClosedError,
    ServerError,
    SessionClosedError,
    UnknownSessionError,
    decode_rows,
    decode_value,
    encode_driver_report,
    encode_report,
    encode_rows,
    encode_topk_report,
    encode_value,
    error_response,
    ok_response,
    request,
    result_or_raise,
    validate_request,
)
from repro.server.scheduler import FairShareScheduler, Job
from repro.util.parallel import ShardExecutor, as_executor

__all__ = ["Server", "Client", "SessionHandle", "serve"]


class _Session:
    """Server-side session record: the ProbDB plus its owner tenant."""

    __slots__ = ("session_id", "tenant", "db")

    def __init__(self, session_id: str, tenant: str, db: ProbDB):
        self.session_id = session_id
        self.tenant = tenant
        self.db = db


class _Pending:
    """A compute request in flight: its session, waiter, and queue timer."""

    __slots__ = ("req", "session", "future", "timer")

    def __init__(self, req: dict, session: _Session, future: asyncio.Future):
        self.req = req
        self.session = session
        self.future = future
        self.timer = None


def serve(
    source,
    workers: "int | ShardExecutor | None" = None,
    **config,
) -> "Server":
    """Open a :class:`Server` on ``source`` (see :class:`Server` for config).

    Example::

        from repro.server import serve, Client

        server = serve(coin_database(), workers=2, tenant_quota=1)
        client = Client(server, tenant="alice")
        async with await client.open_session(seed=7) as session:
            reports = await session.confidence_all("T")
        await server.close()
    """
    return Server(source, workers=workers, **config)


class Server:
    """Multi-session serving layer over one database template.

    ``source`` is anything :func:`repro.connect` accepts; every session
    opens on a **private copy** of it, so tenants never see each
    other's assignments.  ``workers`` sizes the one shared shard pool
    (an existing :class:`ShardExecutor` is borrowed, an int builds an
    owned one; default ``REPRO_WORKERS`` or serial).  Scheduling knobs:
    ``tenant_quota`` (concurrent jobs per tenant), ``max_in_flight``
    (global concurrency), ``max_queue`` (per-tenant queue depth beyond
    which admission rejects), ``admission_timeout`` (seconds a request
    may wait queued; ``None`` waits indefinitely).  ``max_cache_bytes``
    caps the *summed* approximate bytes of every session's memo cache,
    evicting globally-LRU recompute-pure entries (see
    :mod:`repro.server.budget`); ``None`` leaves caches unbounded.
    """

    def __init__(
        self,
        source,
        workers: "int | ShardExecutor | None" = None,
        strategy: str = "auto",
        eps: float | None = None,
        delta: float | None = None,
        backend: str | None = None,
        tenant_quota: int = 2,
        max_in_flight: int = 8,
        max_queue: int = 64,
        admission_timeout: float | None = None,
        max_cache_bytes: int | None = None,
        cache_size: int | None = 1024,
    ):
        self._template = ProbDB._coerce(source, copy=False)
        self._strategy = strategy
        self._eps = eps
        self._delta = delta
        self._backend = backend
        self._cache_size = cache_size
        self._executor, self._owns_executor = as_executor(workers)
        # Warm the shard pool before any compute thread exists: under the
        # ``fork`` start method the pool MUST fork first (forked children
        # must not inherit live threads); under ``forkserver`` this just
        # moves cold-start latency off the first tenant's query.
        self._executor.prestart()
        self._scheduler = FairShareScheduler(
            tenant_quota=tenant_quota,
            max_in_flight=max_in_flight,
            max_queue=max_queue,
        )
        self._admission_timeout = admission_timeout
        self._budget = CacheBudget(max_cache_bytes)
        self._threads = ThreadPoolExecutor(
            max_workers=max_in_flight, thread_name_prefix="repro-serve"
        )
        self._sessions: dict[str, _Session] = {}
        self._closed_sessions: set[str] = set()
        self._session_ids = itertools.count(1)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False
        self._started = time.perf_counter()
        # Cumulative σ̂ candidates certified by dissociation bounds across
        # every driver run served — the "sampling we never had to do"
        # observability counter (surfaced via the stats op).
        self._bounds_certified = 0

    # --------------------------------------------------------------- handle
    async def handle(self, req: dict) -> dict:
        """Serve one protocol request; always returns a response dict.

        Typed failures come back as ``{"ok": false, "error": {...}}``
        (never raised across the protocol boundary); unexpected engine
        exceptions surface as ``query-error``.
        """
        started = time.perf_counter()
        try:
            req = validate_request(req)
            self._bind_loop()
            if self._closed:
                raise ServerClosedError("server is closed")
            op = req["op"]
            if op == "open_session":
                result = self._open_session(req)
            elif op == "close_session":
                result = await self._close_session(req)
            elif op == "stats":
                result = self._stats()
            else:
                result = await self._compute(req)
        except ServerError as exc:
            return error_response(exc)
        except Exception as exc:  # engine/parse errors cross typed
            return error_response(QueryError(f"{type(exc).__name__}: {exc}"))
        return ok_response(result, elapsed=time.perf_counter() - started)

    def _bind_loop(self) -> None:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            # The scheduler is lock-free *because* one loop drives it.
            raise ProtocolError("server is bound to a different event loop")

    # ------------------------------------------------------------- sessions
    def _open_session(self, req: dict) -> dict:
        params = req.get("params") or {}
        session_id = f"s{next(self._session_ids)}"
        db = ProbDB(
            self._template,
            strategy=params.get("strategy", self._strategy),
            eps=params.get("eps", self._eps),
            delta=params.get("delta", self._delta),
            rng=params.get("seed", 0),
            copy=True,
            cache_size=params.get("cache_size", self._cache_size),
            backend=self._backend,
            workers=self._executor,
        )
        session = _Session(session_id, req["tenant"], db)
        self._sessions[session_id] = session
        self._budget.register(db._cache)
        return {"session": session_id}

    def _session_for(self, req: dict) -> _Session:
        session_id = req["session"]
        session = self._sessions.get(session_id)
        if session is None:
            if session_id in self._closed_sessions:
                raise SessionClosedError(f"session {session_id!r} is closed")
            raise UnknownSessionError(f"unknown session {session_id!r}")
        if session.tenant != req["tenant"]:
            # Sessions are tenant-private; a wrong tenant learns nothing
            # beyond "no such session of yours".
            raise UnknownSessionError(f"unknown session {session_id!r}")
        return session

    async def _close_session(self, req: dict) -> dict:
        session = self._session_for(req)
        return await self._teardown_session(session)

    async def _teardown_session(self, session: _Session) -> dict:
        self._sessions.pop(session.session_id, None)
        self._closed_sessions.add(session.session_id)
        # Jobs still queued for this session lose the race with close.
        for job in self._scheduler.cancel_session(session.session_id):
            pending = job.payload
            if pending.timer is not None:
                pending.timer.cancel()
                pending.timer = None
            if not pending.future.done():
                pending.future.set_exception(
                    SessionClosedError(
                        f"session {session.session_id!r} closed while queued"
                    )
                )
        # Running jobs are unaffected: ProbDB.close only flags the session
        # and leaves the *borrowed* shared executor running.
        self._budget.unregister(session.db._cache)
        await session.db.aclose()
        self._pump()
        return {"session": session.session_id, "closed": True}

    # -------------------------------------------------------------- compute
    async def _compute(self, req: dict):
        session = self._session_for(req)
        job = Job(req["tenant"], req["session"])
        future = self._loop.create_future()
        job.payload = _Pending(req, session, future)
        if not self._scheduler.submit(job):
            raise QuotaExceededError(
                f"tenant {req['tenant']!r} has {self._scheduler.max_queue} "
                f"requests queued; retry later"
            )
        if self._admission_timeout is not None:
            job.payload.timer = self._loop.call_later(
                self._admission_timeout, self._expire, job
            )
        self._pump()
        return await future

    def _expire(self, job: Job) -> None:
        pending = job.payload
        pending.timer = None
        if self._scheduler.cancel(job) and not pending.future.done():
            pending.future.set_exception(
                AdmissionTimeoutError(
                    f"request waited over {self._admission_timeout}s "
                    f"in tenant {job.tenant!r} queue"
                )
            )

    def _pump(self) -> None:
        """Start every job the scheduler releases (loop thread only)."""
        for job in self._scheduler.dispatch():
            pending = job.payload
            if pending.timer is not None:
                pending.timer.cancel()
                pending.timer = None
            task = self._loop.run_in_executor(self._threads, self._execute, job)
            task.add_done_callback(lambda fut, job=job: self._finish(job, fut))

    def _finish(self, job: Job, fut) -> None:
        self._scheduler.complete(job)
        pending = job.payload
        if not pending.future.done():
            exc = fut.exception()
            if exc is None:
                pending.future.set_result(fut.result())
            elif isinstance(exc, ServerError):
                pending.future.set_exception(exc)
            else:
                pending.future.set_exception(
                    QueryError(f"{type(exc).__name__}: {exc}")
                )
        self._pump()

    def _execute(self, job: Job):
        """The blocking engine call — runs on a compute thread."""
        pending = job.payload
        op = pending.req["op"]
        params = pending.req.get("params") or {}
        db = pending.session.db
        if op == "query":
            result = db.query(self._query_text(params))
            return {
                "columns": list(result.columns),
                "rows": encode_rows(result.rows),
                "complete": bool(result.complete),
            }
        if op == "confidence_all":
            reports = db.confidence_all(
                self._query_text(params), strategy=params.get("strategy")
            )
            return {
                "tuples": [
                    [encode_value(row), encode_report(report)]
                    for row, report in sorted(reports.items(), key=lambda kv: repr(kv[0]))
                ]
            }
        if op == "evaluate_with_guarantee":
            for name in ("delta", "eps0"):
                if not isinstance(params.get(name), (int, float)):
                    raise ProtocolError(f"evaluate_with_guarantee needs numeric {name!r}")
            kwargs = {}
            if "bounds_budget" in params:
                budget = params["bounds_budget"]
                if budget is not None and not isinstance(budget, int):
                    raise ProtocolError("bounds_budget must be an int or None")
                kwargs["bounds_budget"] = budget
            report = db.evaluate_with_guarantee(
                self._query_text(params),
                delta=params["delta"],
                eps0=params["eps0"],
                **kwargs,
            )
            self._bounds_certified += report.bounds_certified
            return encode_driver_report(report)
        if op == "topk":
            k = params.get("k")
            if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                raise ProtocolError("topk needs a positive integer 'k' param")
            kwargs = {}
            for name in ("eps", "delta"):
                if name in params and params[name] is not None:
                    value = params[name]
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        raise ProtocolError(f"topk param {name!r} must be numeric")
                    kwargs[name] = value
            if "bounds_budget" in params:
                budget = params["bounds_budget"]
                if isinstance(budget, bool) or not isinstance(budget, int):
                    raise ProtocolError("bounds_budget must be an int")
                kwargs["bounds_budget"] = budget
            report = db.topk(self._query_text(params), k, **kwargs)
            return encode_topk_report(report)
        if op == "explain":
            return {"text": str(db.explain(self._query_text(params)))}
        raise ProtocolError(f"unhandled compute op {op!r}")

    @staticmethod
    def _query_text(params: dict) -> str:
        query = params.get("query")
        if not isinstance(query, str) or not query.strip():
            raise ProtocolError("compute ops need a non-empty string 'query' param")
        return query

    # ----------------------------------------------------------------- obs
    def _stats(self) -> dict:
        return {
            "uptime": time.perf_counter() - self._started,
            "sessions": {
                "open": len(self._sessions),
                "closed": len(self._closed_sessions),
            },
            "scheduler": self._scheduler.stats(),
            "cache": self._budget.stats(),
            "driver": {"bounds_certified": self._bounds_certified},
            "executor": {
                "workers": self._executor.workers,
                "start_method": self._executor.start_method,
                "owned": self._owns_executor,
            },
        }

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------ lifecycle
    async def aclose(self) -> None:
        """Drain and shut down: fail queued work, finish running work.

        Idempotent.  Queued jobs fail with ``server-closed``; running
        jobs complete and their callers get answers; then every session
        closes and the owned pool (if any) is torn down.
        """
        if self._closed:
            return
        self._closed = True
        for session in list(self._sessions.values()):
            for job in self._scheduler.cancel_session(session.session_id):
                pending = job.payload
                if pending.timer is not None:
                    pending.timer.cancel()
                    pending.timer = None
                if not pending.future.done():
                    pending.future.set_exception(ServerClosedError("server is closed"))
        # Wait for in-flight compute off the loop thread, then close
        # sessions (cheap: their executor is borrowed).
        await asyncio.to_thread(self._threads.shutdown, True)
        for session in list(self._sessions.values()):
            self._budget.unregister(session.db._cache)
            await session.db.aclose()
            self._closed_sessions.add(session.session_id)
        self._sessions.clear()
        if self._owns_executor:
            await asyncio.to_thread(self._executor.close)

    def __repr__(self) -> str:
        return (
            f"Server({len(self._sessions)} sessions, "
            f"workers={self._executor.workers}, "
            f"{'closed' if self._closed else 'open'})"
        )


# ------------------------------------------------------------------- client
class Client:
    """In-process protocol client — the degenerate transport.

    Builds request dicts, awaits :meth:`Server.handle`, and re-raises
    typed errors.  With ``wire=True`` every request and response is
    round-tripped through ``json.dumps``/``json.loads`` first, proving
    nothing relies on shared in-memory objects (the soak tests run this
    mode; a socket front end would serialize exactly these bytes).

    One client serves one tenant; open as many sessions as the server's
    quota allows::

        client = Client(server, tenant="alice", wire=True)
        session = await client.open_session(seed=7)
        await session.query("select[CoinType = 'fair'](Coins)")
        await session.evaluate_with_guarantee(q, delta=0.05, eps0=0.1)
        await session.close()      # or: async with await client.open_session()
    """

    def __init__(self, server: Server, tenant: str = "default", wire: bool = False):
        self._server = server
        self.tenant = tenant
        self.wire = wire

    async def call(self, op: str, session: str | None = None, params: dict | None = None):
        req = request(op, self.tenant, session=session, params=params)
        if self.wire:
            req = json.loads(json.dumps(req))
        response = await self._server.handle(req)
        if self.wire:
            response = json.loads(json.dumps(response))
        return result_or_raise(response)

    async def open_session(self, seed: int = 0, **params) -> "SessionHandle":
        result = await self.call("open_session", params={"seed": seed, **params})
        return SessionHandle(self, result["session"])

    async def stats(self) -> dict:
        return await self.call("stats")


class SessionHandle:
    """A client's view of one server session; methods mirror :class:`ProbDB`."""

    def __init__(self, client: Client, session_id: str):
        self._client = client
        self.session_id = session_id

    async def query(self, query: str) -> list[tuple]:
        """The query's possible tuples, decoded, deterministically ordered."""
        result = await self._client.call(
            "query", session=self.session_id, params={"query": query}
        )
        return decode_rows(result["rows"])

    async def confidence_all(self, query: str, strategy: str | None = None) -> dict:
        """Per-tuple confidence reports, keyed by decoded data tuple."""
        params = {"query": query}
        if strategy is not None:
            params["strategy"] = strategy
        result = await self._client.call(
            "confidence_all", session=self.session_id, params=params
        )
        return {
            decode_value(row): decode_value(report)
            for row, report in result["tuples"]
        }

    async def evaluate_with_guarantee(
        self,
        query: str,
        delta: float,
        eps0: float,
        bounds_budget: int | None = ...,
    ) -> dict:
        """The Theorem 6.7 driver's report, decoded (rows back to tuples).

        ``bounds_budget`` (when given) is forwarded verbatim; ``0`` turns
        dissociation-bound pruning off, leaving pure sampling.  Left at
        the default, the server session's own default applies.
        """
        params = {"query": query, "delta": delta, "eps0": eps0}
        if bounds_budget is not ...:
            params["bounds_budget"] = bounds_budget
        result = await self._client.call(
            "evaluate_with_guarantee",
            session=self.session_id,
            params=params,
        )
        return decode_value(result)

    async def topk(
        self,
        query: str,
        k: int,
        eps: float | None = None,
        delta: float | None = None,
        bounds_budget: int | None = None,
    ) -> dict:
        """The decoded top-k racing report (entries keep exact values).

        Mirrors :meth:`ProbDB.topk`; ``eps``/``delta`` default to the
        server session's guarantee.
        """
        params: dict = {"query": query, "k": k}
        if eps is not None:
            params["eps"] = eps
        if delta is not None:
            params["delta"] = delta
        if bounds_budget is not None:
            params["bounds_budget"] = bounds_budget
        result = await self._client.call(
            "topk", session=self.session_id, params=params
        )
        return decode_value(result)

    async def explain(self, query: str) -> str:
        result = await self._client.call(
            "explain", session=self.session_id, params={"query": query}
        )
        return result["text"]

    async def close(self) -> dict:
        return await self._client.call("close_session", session=self.session_id)

    def __repr__(self) -> str:
        return f"SessionHandle({self.session_id!r}, tenant={self._client.tenant!r})"
