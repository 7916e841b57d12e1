"""The run scope: the per-request state the fan-out points read.

A request — a session call, a library driver run — opens one
:func:`run_scope` holding the :class:`~repro.util.parallel.ShardExecutor`
that runs its shards, the bound budget of its σ̂ certification and the
run memo (:class:`~repro.confidence.dissociation.EnclosureMemo`: what a
Theorem 6.7 restart keeps).  The layers in between pass none of it on;
the fan-out points ask :func:`current_scope`.  A context variable
carries it, so it follows the thread that opened it.  Outside every
scope the current one is serial — :data:`~repro.util.parallel.SERIAL_EXECUTOR`,
no budget, a memo fresh to each ask — and so is the scope of every task
:meth:`~repro.util.parallel.ShardExecutor.map` runs: a task that needs a
scope field carries it in its task tuple.
"""

from __future__ import annotations

import contextvars
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util.parallel import SERIAL_EXECUTOR, ShardExecutor

if TYPE_CHECKING:
    from repro.confidence.dissociation import EnclosureMemo

__all__ = ["RunScope", "current_scope", "run_scope", "valid_bounds_budget"]


@dataclass(frozen=True)
class RunScope:
    """The run scope: one request's executor, bound budget and run memo."""

    executor: ShardExecutor
    bounds_budget: int | None
    memo: EnclosureMemo


_CURRENT: contextvars.ContextVar[RunScope | None] = contextvars.ContextVar(
    "repro_run_scope", default=None
)


def current_scope() -> RunScope:
    """The innermost open run scope, else the serial scope (with a fresh memo)."""
    scope = _CURRENT.get()
    return RunScope(SERIAL_EXECUTOR, None, _fresh_memo()) if scope is None else scope


def _fresh_memo() -> EnclosureMemo:
    # ``repro.confidence.dissociation`` reads the scope: imported on use.
    from repro.confidence.dissociation import EnclosureMemo

    return EnclosureMemo()


def valid_bounds_budget(budget: object) -> bool:
    """Is ``budget`` a bound budget: an int ≥ 0 that is not a bool, or ``None``?"""
    return budget is None or (
        isinstance(budget, int) and not isinstance(budget, bool) and budget >= 0
    )


@contextmanager
def run_scope(
    executor: ShardExecutor | None = None,
    bounds_budget: int | None = None,
    memo: EnclosureMemo | None = None,
) -> Iterator[RunScope]:
    """Make a run scope current for the ``with`` block, and yield it.

    The scope opens a fresh run memo unless it is given one; an
    executor or budget given as ``None`` is inherited from the enclosing
    scope — never reset to serial — so a scope opened outside every
    other one gets the serial executor and no budget.  An invalid
    ``bounds_budget`` raises :class:`ValueError`.
    """
    if not valid_bounds_budget(bounds_budget):
        raise ValueError(
            f"bounds_budget must be a non-negative int or None, got {bounds_budget!r}"
        )
    outer = current_scope()
    scope = RunScope(
        outer.executor if executor is None else executor,
        outer.bounds_budget if bounds_budget is None else bounds_budget,
        _fresh_memo() if memo is None else memo,
    )
    token = _CURRENT.set(scope)
    try:
        yield scope
    finally:
        _CURRENT.reset(token)
