"""Spans and counters recorded from outside the program.

The engine has no tracing of its own yet (ROADMAP, "a tracing spine"),
so the per-layer numbers come from timers this harness places around
calls into each layer's *public* functions.  Three mechanisms, all of
them outside ``src/``:

(a) injection through public parameters — :class:`TimedExecutor` (a
    ``ShardExecutor`` whose ``map`` is timed) and :class:`TracedStrategy`
    (a delegating ``ConfidenceStrategy``) are handed to
    ``connect(workers=..., strategy=...)`` / ``serve(workers=...)``;
(b) replaying an op as a chain of public layer calls, each inside
    :meth:`Tracer.span` (see ``workloads.py``);
(c) public result fields — :class:`TimedClient` keeps each response's
    ``elapsed`` and the wire bytes the stock ``Client`` discards.

Spans carry name, start, end, parent and the op's id, are kept in
memory, and are written out once when the pass ends.
"""

from __future__ import annotations

import json
import pickle
import resource
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.engine.strategies import (
    ConfidenceStrategy,
    compute_batch_with_executor,
    compute_with_executor,
)
from repro.server import Client
from repro.server.protocol import request, result_or_raise
from repro.util.parallel import ShardExecutor

__all__ = ["Tracer", "TimedExecutor", "TracedStrategy", "TimedClient"]


class Tracer:
    """In-memory span and counter store for one traced pass.

    Spans nest per thread (a server's compute threads record beside the
    event-loop thread); a span's ``parent`` is the index of the span
    that was open on the same thread when it started.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {"name": name, "op": self.op_id, "parent": stack[-1] if stack else None}
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    # ------------------------------------------------------------ readouts
    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def by_op(self, name: str) -> dict[int | None, float]:
        """Per op id, the summed duration of the spans called ``name``."""
        totals: dict[int | None, float] = defaultdict(float)
        for s in self.spans:
            if s["name"] == name:
                totals[s["op"]] += s["end"] - s["start"]
        return totals

    def children_by_op(self, parent_name: str) -> dict[int, float]:
        """Per op id, the summed duration of the spans directly under its
        ``parent_name`` span."""
        totals: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if self._parent_name(s) == parent_name:
                totals[s["op"]] += s["end"] - s["start"]
        return totals

    def _parent_name(self, span: dict) -> str | None:
        parent = span["parent"]
        return None if parent is None else self.spans[parent]["name"]

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, handle)


class TimedExecutor(ShardExecutor):
    """A ``ShardExecutor`` whose fan-outs are timed and sized.

    Counts only maps that actually fan out (more than one task), the
    same test :meth:`ShardExecutor.map` uses before touching the pool.
    Task bytes are measured by pickling the arguments once more — a
    cost paid in the traced pass only.
    """

    def __init__(self, tracer: Tracer, workers: int):
        super().__init__(workers)
        self.tracer = tracer

    def map(self, fn, tasks, validate: bool = True):
        tasks = list(tasks)
        if len(tasks) <= 1:
            return super().map(fn, tasks, validate)
        self.tracer.count("parallel.map_calls")
        self.tracer.count("parallel.tasks", len(tasks))
        self.tracer.count(
            "parallel.pickle_bytes",
            sum(len(pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL)) for args in tasks),
        )
        with self.tracer.span("parallel.map"):
            return super().map(fn, tasks, validate)

    def worker_rss_mb(self) -> float:
        """Largest peak RSS among the pool workers (0 when serial)."""
        if not self.parallel:
            return 0.0
        probes = [(i,) for i in range(4 * self.workers)]
        return max(super().map(_rss_probe, probes))


def _rss_probe(_index: int) -> float:
    """Peak resident set of whichever pool worker runs this, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TracedStrategy(ConfidenceStrategy):
    """Delegates to ``inner`` and records what the engine asked of it.

    Name, cache token and RNG use are the inner strategy's, so sessions
    route, memoize and draw exactly as with ``inner`` itself; sharded
    batches pickle ``inner`` (never this wrapper or its tracer), because
    the inner ``compute_batch`` does the sharding.
    """

    def __init__(self, inner: ConfidenceStrategy, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name
        self.consumes_rng = inner.consumes_rng

    @property
    def cache_token(self) -> tuple:
        return self.inner.cache_token

    def choose(self, dnf):
        return self.inner.choose(dnf)

    def trial_budget(self, dnf):
        return self.inner.trial_budget(dnf)

    def _record(self, reports) -> None:
        routes = {"exact-decomposition": "exact", "dissociation-bounds": "bounds"}
        for report in reports:
            route = routes.get(report.method, "sampled")
            self.tracer.count(f"engine.route.{route}")
            self.tracer.count("confidence.trials", report.samples)

    def compute(self, dnf, rng, executor=None):
        with self.tracer.span("engine.compute_batch"):
            report = compute_with_executor(self.inner, dnf, rng, executor)
        self._record([report])
        return report

    def compute_batch(self, dnfs, rng, executor=None):
        with self.tracer.span("engine.compute_batch"):
            reports = compute_batch_with_executor(self.inner, dnfs, rng, executor)
        self._record(reports)
        return reports


class TimedClient(Client):
    """The wire client, keeping what :meth:`Client.call` throws away.

    Same request dicts, same JSON round trip, same typed errors; also
    records per request: the op, the client-side latency, the server's
    own ``elapsed`` and the bytes that crossed in both directions.
    """

    def __init__(self, server, tenant: str, tracer: Tracer):
        super().__init__(server, tenant=tenant, wire=True)
        self.server = server
        self.tracer = tracer
        self.calls: list[tuple[str, float, float]] = []

    async def call(self, op, session=None, params=None):
        started = time.perf_counter()
        sent = json.dumps(request(op, self.tenant, session=session, params=params))
        response = await self.server.handle(json.loads(sent))
        received = json.dumps(response)
        response = json.loads(received)
        latency = time.perf_counter() - started
        self.tracer.count("server.wire_bytes", len(sent) + len(received))
        self.calls.append((op, latency, response.get("elapsed") or 0.0))
        return result_or_raise(response)
