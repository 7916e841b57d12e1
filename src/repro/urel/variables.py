"""The W table: finitely many independent discrete random variables.

A U-relational database "defines a weighted set of possible worlds via a
finite set of independent discrete random variables Var.  That is, for
each X ∈ Var, there is a finite set Dom_X such that, for each
x ∈ Dom_X, Pr[X = x] > 0 and Σ_x Pr[X = x] = 1" (Section 3).

The paper materializes this as a relation ``W(Var, Dom, P)``; this class
is that relation with the obvious dictionary index, plus:

* ``weight(f)`` — the probability mass of a partial function (Eq. 2),
* sampling support used by the Karp–Luby estimator (Definition 4.1,
  step 2), and
* rendering as the literal W table of Figure 1.
"""

from __future__ import annotations

import random
import threading
from collections.abc import Mapping
from fractions import Fraction
from numbers import Rational

from repro.algebra.relations import Relation
from repro.urel.conditions import Condition, DomValue, Var
from repro.worlds.database import Prob

__all__ = ["VariableTable", "VariableError"]

_ZERO = Fraction(0)  # Pr of a value outside the domain (immutable: shared)


class VariableError(ValueError):
    """Raised for invalid variable definitions or lookups."""


class VariableTable:
    """Mutable registry of independent discrete random variables.

    ``version`` counts successful :meth:`add` calls; the engine's memo
    cache keys on it so entries die whenever W grows (a repair-key fired).

    Mutations are serialized by an internal lock so the registry insert
    and the version bump are one atomic step even when a threaded server
    shares the session (two racing repair-keys must never produce a
    table whose contents and version disagree).  Reads stay lock-free —
    the dict is only ever *extended*, and version checks are advisory.
    The lock never travels: pickling (DNFs ship W tables to shard
    workers) and copying recreate a fresh one.
    """

    __slots__ = ("_vars", "_version", "_lock")

    def __init__(self) -> None:
        self._vars: dict[Var, dict[DomValue, Prob]] = {}  # detlint: guarded-by(_lock)
        self._version = 0  # detlint: guarded-by(_lock)
        self._lock = threading.RLock()

    def __getstate__(self):
        # Snapshot under the lock: pickling happens on the shard pool's
        # feeder thread and must not race a concurrent add() (the outer
        # dict would change size mid-iteration).  Inner distribution
        # dicts are immutable after add, so a shallow copy suffices.
        with self._lock:
            return (dict(self._vars), self._version)

    def __setstate__(self, state) -> None:
        self._vars, self._version = state
        self._lock = threading.RLock()

    @property
    def version(self) -> int:
        """Mutation counter (bumped by every new variable)."""
        return self._version

    # ------------------------------------------------------------- mutation
    def add(self, var: Var, distribution: Mapping[DomValue, Prob]) -> None:
        """Register a new variable with its full distribution."""
        dist = dict(distribution)
        if not dist:
            raise VariableError(f"variable {var!r} needs a non-empty domain")
        total: Prob = Fraction(0)
        for value, p in dist.items():
            if p <= 0:
                raise VariableError(
                    f"Pr[{var!r} = {value!r}] must be > 0, got {p!r}"
                )
            total = total + p
        if isinstance(total, Rational):
            if total != 1:
                raise VariableError(f"distribution of {var!r} sums to {total}, not 1")
        elif abs(total - 1.0) > 1e-9:
            raise VariableError(f"distribution of {var!r} sums to {total}, not 1")
        with self._lock:
            if var in self._vars:
                raise VariableError(f"variable {var!r} already defined")
            self._vars[var] = dist
            self._version += 1

    def ensure(self, var: Var, distribution: Mapping[DomValue, Prob]) -> None:
        """Add ``var`` if absent; verify the distribution matches if present."""
        with self._lock:
            if var not in self._vars:
                self.add(var, distribution)
            elif self._vars[var] != dict(distribution):
                raise VariableError(
                    f"variable {var!r} redefined with a different distribution"
                )

    # ------------------------------------------------------------- queries
    def __contains__(self, var: Var) -> bool:
        return var in self._vars

    def __len__(self) -> int:
        return len(self._vars)

    @property
    def variables(self) -> frozenset[Var]:
        return frozenset(self._vars)

    def domain(self, var: Var) -> tuple[DomValue, ...]:
        try:
            return tuple(self._vars[var])
        except KeyError as exc:
            raise VariableError(f"unknown variable {var!r}") from exc

    def prob(self, var: Var, value: DomValue) -> Prob:
        """Pr[var = value]; zero for values outside the domain."""
        try:
            dist = self._vars[var]
        except KeyError as exc:
            raise VariableError(f"unknown variable {var!r}") from exc
        return dist.get(value, _ZERO)

    def distribution(self, var: Var) -> dict[DomValue, Prob]:
        return dict(self._vars[var])

    def weight(self, condition: Condition) -> Prob:
        """p_f = Π_{X ∈ dom(f)} Pr[X = f(X)]  (Equation 2)."""
        w: Prob = Fraction(1)
        for var, value in condition.items():
            p = self.prob(var, value)
            if p == 0:
                return Fraction(0)
            w = w * p
        return w

    # ------------------------------------------------------------- sampling
    def sample_value(self, var: Var, rng: random.Random) -> DomValue:
        """Draw a value of ``var`` from its distribution."""
        dist = self._vars[var]
        u = rng.random()
        acc = 0.0
        last = None
        for value, p in dist.items():
            acc += float(p)
            last = value
            if u < acc:
                return value
        return last  # numeric slack lands on the final value

    # ------------------------------------------------------------- plumbing
    def copy(self) -> "VariableTable":
        clone = VariableTable()
        with self._lock:
            clone._vars = {var: dict(dist) for var, dist in self._vars.items()}
            clone._version = self._version
        return clone

    def as_relation(self) -> Relation:
        """The literal ``W(Var, Dom, P)`` relation of the paper (Figure 1)."""
        rows = []
        for var, dist in self._vars.items():
            for value, p in dist.items():
                rows.append((_render(var), _render(value), p))
        return Relation.from_rows(("Var", "Dom", "P"), rows)

    def __repr__(self) -> str:
        return f"VariableTable({len(self._vars)} variables)"


def _render(value: object) -> object:
    """Flatten tuple-shaped variable names for display."""
    if isinstance(value, tuple):
        return "(" + ", ".join(str(_render(v)) for v in value) + ")"
    return value
