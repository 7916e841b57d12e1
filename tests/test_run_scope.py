"""The run scope: one per request, opened at the entry points, read at the fan-outs.

Pinned here:

* the scope's own rules — three fields, ``None`` inherits, one budget
  check for every entry point that takes a ``bounds_budget``;
* every task sees the serial scope, in a pool worker or in process;
* an exception in the middle of a request leaves no scope behind, on
  the caller's thread or on a server's compute thread, and no in-flight
  slot: the next request answers what a fresh session answers;
* a deferred relation (a lifted plan's, read after ``db.query``
  returned) is built on the session's executor and equals the eager one.
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import os
import random
from fractions import Fraction

import pytest

import repro
from repro.confidence import lineage
from repro.confidence.dissociation import DEFAULT_BOUND_BUDGET
from repro.confidence.strategies import ConfidenceStrategy
from repro.core.driver import evaluate_with_guarantee
from repro.core.topk import race_topk
from repro.generators.coins import coin_database
from repro.generators.tpdb import add_tuple_independent
from repro.server import Client, serve
from repro.server.protocol import ProtocolError, QueryError
from repro.urel.conditions import Condition
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.parallel import SERIAL_EXECUTOR, ShardExecutor
from repro.util.scope import RunScope, current_scope, run_scope

BAD_BUDGETS = [True, False, -5, 1.5, "64"]


def _is_serial_scope(run: RunScope) -> bool:
    return run.executor is SERIAL_EXECUTOR and run.bounds_budget is None


def _coin_session(**kwargs):
    db = repro.connect(coin_database(), rng=0, **kwargs)
    db.assign("R", "project[CoinType](repair-key[@ Count](Coins))")
    return db


# ------------------------------------------------------------------ the scope
def test_the_run_scope_has_three_fields():
    names = [field.name for field in dataclasses.fields(RunScope)]
    assert names == ["executor", "bounds_budget", "memo"]


def test_none_inherits_and_the_outermost_scope_is_serial():
    assert _is_serial_scope(current_scope())
    assert current_scope().memo is not current_scope().memo  # fresh per ask
    with ShardExecutor(1) as executor:
        with run_scope(executor=executor, bounds_budget=7) as outer:
            assert current_scope() is outer
            with run_scope() as inner:
                assert inner.executor is executor and inner.bounds_budget == 7
                assert inner.memo is not outer.memo  # every scope opens a fresh memo
            with run_scope(memo=outer.memo) as inner:
                assert inner.memo is outer.memo
            with run_scope(bounds_budget=0) as inner:
                assert inner.executor is executor and inner.bounds_budget == 0
            assert current_scope() is outer
    assert _is_serial_scope(current_scope())


@pytest.mark.parametrize("budget", BAD_BUDGETS)
def test_run_scope_rejects_a_bad_budget(budget):
    with pytest.raises(ValueError, match="bounds_budget"):
        with run_scope(bounds_budget=budget):
            pass
    assert _is_serial_scope(current_scope())


@pytest.mark.parametrize("budget", BAD_BUDGETS)
def test_every_entry_point_rejects_a_bad_budget(budget):
    query = "aselect[P > 0.3 ; conf(CoinType) as P](R)"
    with _coin_session() as db:
        state = db.rng.getstate()
        with pytest.raises(ValueError, match="bounds_budget"):
            db.topk("R", 1, bounds_budget=budget)
        with pytest.raises(ValueError, match="bounds_budget"):
            db.query("R").topk(1, bounds_budget=budget)
        with pytest.raises(ValueError, match="bounds_budget"):
            db.evaluate_with_guarantee(query, delta=0.1, eps0=0.1, bounds_budget=budget)
        assert db.rng.getstate() == state  # refused before anything was drawn
        result = db.query("R")
        rows, dnfs = lineage(result.relation, db.w, result.rows)
        with pytest.raises(ValueError, match="bounds_budget"):
            race_topk(rows, dnfs, 1, 0.1, 0.1, rng=0, bounds_budget=budget)
        with pytest.raises(ValueError, match="bounds_budget"):
            evaluate_with_guarantee(
                repro.parse_query(query), db.db, 0.1, 0.1, rng=0, bounds_budget=budget
            )


def test_the_server_rejects_what_the_library_rejects():
    async def scenario():
        server = serve(_coin_session().db, workers=1)
        client = Client(server, tenant="t", wire=True)
        session = await client.open_session(seed=0)
        try:
            for budget in [True, -5, 1.5, "64"]:
                for call in (
                    session.topk("R", 1, bounds_budget=budget),
                    session.evaluate_with_guarantee(
                        "aselect[P > 0.3 ; conf(CoinType) as P](R)",
                        delta=0.1,
                        eps0=0.1,
                        bounds_budget=budget,
                    ),
                ):
                    with pytest.raises(ProtocolError, match="bounds_budget"):
                        await call
        finally:
            await server.aclose()

    asyncio.run(scenario())


# ------------------------------------------------------------ the library runs
def _flipped(flip: bool) -> UDatabase:
    """G(A), tuple k the disjunction x_k ∨ y_k: the same variable names
    whatever ``flip``, which mirrors their weights."""
    w = VariableTable()
    rows = []
    for k, p in enumerate((Fraction(1, 10), Fraction(2, 10), Fraction(5, 10), Fraction(6, 10))):
        p = 1 - p if flip else p
        for name in ("x", "y"):
            w.add((name, k), {1: p, 0: 1 - p})
            rows.append((Condition({(name, k): 1}), (k,)))
    db = UDatabase(w=w)
    db.set_relation("G", URelation.from_rows(("A",), rows))
    return db


SELECT = "aselect[P > 0.5 ; conf(A) as P](G)"


def _driver_fields(report):
    return (
        sorted(map(repr, report.relation.rows)),
        report.history,
        report.decisions,
        report.bounds_certified,
        report.bounds_computed,
    )


def _driver(db, **kwargs):
    return evaluate_with_guarantee(repro.parse_query(SELECT), db, 0.1, 0.1, rng=0, **kwargs)


def test_two_driver_runs_in_one_scope_share_nothing():
    """Each run opens its own memo: the same variable names on another
    database meet none of the first run's disjunctions or decisions."""
    budget = {"bounds_budget": DEFAULT_BOUND_BUDGET}
    alone = [_driver_fields(_driver(_flipped(flip), **budget)) for flip in (False, True)]
    assert alone[0][0] != alone[1][0] and alone[0][4] == alone[1][4] == 4
    with ShardExecutor(1) as executor, run_scope(executor=executor):
        together = [_driver_fields(_driver(_flipped(flip), **budget)) for flip in (False, True)]
    assert together == alone


def test_a_library_run_takes_none_for_no_pruning_inside_any_scope():
    db = _flipped(False)
    rows, dnfs = lineage(db.relation("G"), db.w)
    off = _driver_fields(_driver(db, bounds_budget=0))
    race_off = race_topk(rows, dnfs, 2, 0.1, 0.1, rng=0, bounds_budget=0)
    assert off[3] == 0 and _driver_fields(_driver(db, bounds_budget=DEFAULT_BOUND_BUDGET))[3] == 4
    with run_scope(bounds_budget=DEFAULT_BOUND_BUDGET):
        assert _driver_fields(_driver(db, bounds_budget=None)) == off
        assert race_topk(rows, dnfs, 2, 0.1, 0.1, rng=0, bounds_budget=None) == race_off
    assert _driver_fields(_driver(db)) == off


# ------------------------------------------------------------ worker processes
def _scope_in_task(index: int) -> tuple[bool, int]:
    """Shard task: is this task in the serial scope, and in which process?"""
    return _is_serial_scope(current_scope()), os.getpid()


@pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="no forkserver start method",
)
def test_a_pool_worker_runs_its_task_in_the_serial_scope():
    with ShardExecutor(2) as executor, run_scope(executor=executor, bounds_budget=3):
        assert current_scope().executor is executor
        results = executor.map(_scope_in_task, [(i,) for i in range(4)])
        assert executor.start_method == "forkserver"
    assert all(serial for serial, _pid in results)
    assert os.getpid() not in {pid for _serial, pid in results}


def test_an_in_process_task_runs_in_the_serial_scope_too():
    with ShardExecutor(1, max_shards=4) as executor, run_scope(executor=executor):
        results = executor.map(_scope_in_task, [(i,) for i in range(4)])
    assert results == [(True, os.getpid())] * 4


# ------------------------------------------------------ an exception mid-request
class _Boom(RuntimeError):
    """Raised by :class:`_Exploding` — the typed error the caller must see."""


class _Exploding(ConfidenceStrategy):
    """Fails on the first DNF it is asked to weigh, before drawing anything."""

    name = "exploding"
    consumes_rng = False

    def __init__(self, eps=None, delta=None):
        pass

    def compute(self, dnf, rng):
        raise _Boom("strategy failed mid-request")


def test_an_exception_mid_request_leaves_no_scope_behind():
    with _coin_session(workers=2) as db:
        with pytest.raises(_Boom):  # a per-call strategy, under confidence_all
            db.confidence_all("R", strategy=_Exploding())
        db.strategy = _Exploding()
        with pytest.raises(_Boom):  # the session's, under a conf operator
            db.query("conf[P](R)")
        assert _is_serial_scope(current_scope())
        db.strategy = repro.resolve_strategy("karp-luby")
        after = db.confidence_all("R")
    with _coin_session(workers=2, strategy="karp-luby") as fresh:
        assert fresh.confidence_all("R") == after


def _current_scope_is_serial() -> bool:
    return _is_serial_scope(current_scope())


def test_an_exception_mid_request_leaves_the_server_healthy():
    template = _coin_session().db

    async def scenario():
        server = serve(template, workers=2, strategy=_Exploding(), max_in_flight=1)
        client = Client(server, tenant="t", wire=True)
        try:
            failing = await client.open_session(seed=4)
            with pytest.raises(QueryError, match="_Boom"):
                await failing.query("conf[P](R)")
            # The one compute thread that ran the failed request.
            assert server._threads.submit(_current_scope_is_serial).result()
            stats = (await client.stats())["scheduler"]
            assert stats["in_flight"] == 0 and stats["completed"] == stats["dispatched"]
            after = await failing.confidence_all("R", strategy="karp-luby")
            fresh = await client.open_session(seed=4)
            assert await fresh.confidence_all("R", strategy="karp-luby") == after
        finally:
            await server.aclose()

    asyncio.run(scenario())
    assert _is_serial_scope(current_scope())


# ------------------------------------------------------- a deferred relation
def _safe_join_database() -> UDatabase:
    """R(A, B) ⋈ S(B, C), 32 tuple-independent rows each: inside the
    columnar envelope (64 variables), and a safe plan over them."""
    db = UDatabase()
    half = Fraction(1, 2)
    add_tuple_independent(db, "R", ("A", "B"), [((a, a % 4), half) for a in range(32)])
    add_tuple_independent(db, "S", ("B", "C"), [((c % 4, c), half) for c in range(32)])
    return db


@pytest.mark.parametrize("workers", [1, 2])
def test_a_deferred_relation_is_read_on_the_session_executor(workers, monkeypatch):
    from repro.algebra.operators import Join
    from repro.urel.evaluate import UEvaluator

    join = UEvaluator.HANDLERS[Join]
    join_scopes = []

    def spy(self, node, *operands):
        join_scopes.append(current_scope().executor)
        return join(self, node, *operands)

    query = "project[B](join(R, S))"
    eager = repro.connect(_safe_join_database(), strategy="exact-decomposition")
    with eager, ShardExecutor(workers) as executor:
        want = eager.query(query).relation
        monkeypatch.setitem(UEvaluator.HANDLERS, Join, spy)
        with repro.connect(_safe_join_database(), workers=executor) as db:
            result = db.query(query)
            assert result._answered() is not None and join_scopes == []
            assert _is_serial_scope(current_scope())
            relation = result.relation
            assert join_scopes == [executor]
    assert relation.columns == want.columns
    assert sorted(map(repr, relation.rows)) == sorted(map(repr, want.rows))


# ------------------------------------------------- the harness shims
class _Mapping(ShardExecutor):
    """Counts the items mapped on it."""

    def __init__(self):
        super().__init__(1)
        self.items = 0

    def map_items(self, fn, items, *args):
        self.items += len(items)
        return super().map_items(fn, items, *args)


def test_the_harness_shims_run_the_call_on_the_given_executor():
    """``compute_batch_with_executor`` maps its items on the executor it is
    given, ``compute_with_executor`` runs in a scope on it, and both leave
    the serial scope current afterwards."""
    from repro.confidence.strategies import (
        KarpLuby,
        compute_batch_with_executor,
        compute_with_executor,
    )
    from repro.generators.hard import bipartite_2dnf

    seen = []

    class Witness(KarpLuby):
        """Records the run scope's executor of every ``compute`` call."""

        def compute(self, dnf, rng):
            seen.append(current_scope().executor)
            return super().compute(dnf, rng)

    dnfs = [bipartite_2dnf(3, 3, 0.5, rng=seed) for seed in range(3)]
    strategy = Witness(eps=0.3, delta=0.2)
    executor = _Mapping()
    want = strategy.compute_batch(dnfs, random.Random(1))
    assert compute_batch_with_executor(strategy, dnfs, random.Random(1), executor) == want
    assert executor.items == len(dnfs)
    assert compute_batch_with_executor(strategy, dnfs, random.Random(1), None) == want
    assert executor.items == len(dnfs)
    assert _is_serial_scope(current_scope())

    seen.clear()
    one = strategy.compute(dnfs[0], random.Random(1))
    assert compute_with_executor(strategy, dnfs[0], random.Random(1), executor) == one
    assert compute_with_executor(strategy, dnfs[0], random.Random(1), None) == one
    assert seen == [SERIAL_EXECUTOR, executor, SERIAL_EXECUTOR]
    assert _is_serial_scope(current_scope())
