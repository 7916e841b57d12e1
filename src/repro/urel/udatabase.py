"""U-relational databases: named U-relations plus the shared W table.

A U-relational database ⟨U_{R₁}, …, U_{R_k}, W⟩ (Section 3) pairs one
U-relation per represented schema with the table of independent random
variables.  Completeness flags mirror the paper's function ``c``.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping

from repro.algebra.relations import Relation
from repro.urel.conditions import ConditionPool
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable

__all__ = ["UDatabase"]


class UDatabase:
    """A set of named U-relations sharing one variable table."""

    __slots__ = (
        "relations",
        "w",
        "complete",
        "condition_pool",
        "columnar_context",
        "_version",
        "_lock",
    )

    def __init__(
        self,
        relations: Mapping[str, URelation] | None = None,
        w: VariableTable | None = None,
        complete: Iterable[str] = (),
        condition_pool: ConditionPool | None = None,
        columnar_context=None,
    ):
        self.relations: dict[str, URelation] = dict(relations or {})  # detlint: guarded-by(_lock)
        self.w: VariableTable = w if w is not None else VariableTable()
        self.complete: set[str] = set(complete)  # detlint: guarded-by(_lock)
        # The database-wide intern pool for D-value merges.  Condition
        # algebra never consults W, so pooled entries are pure caches and
        # copies of the database can safely share the pool.
        self.condition_pool = condition_pool if condition_pool is not None else ConditionPool()
        # Lazily-attached ColumnarContext (set by the first evaluator;
        # kept untyped so this module does not import the columnar one).
        # Private per database: a context codes against *this* database's
        # W table, and ``copy()`` hands copies their own snapshot rather
        # than sharing mutable coding state across sessions.
        self.columnar_context = columnar_context  # detlint: guarded-by(_lock)
        self._version = 0  # detlint: guarded-by(_lock)
        self._lock = threading.Lock()
        missing = self.complete - set(self.relations)
        if missing:
            raise ValueError(f"complete-marked relations do not exist: {sorted(missing)}")
        for name in self.complete:
            if not self.relations[name].is_certain:
                raise ValueError(
                    f"relation {name!r} is marked complete but has conditioned tuples"
                )

    # ------------------------------------------------------------ constructors
    @staticmethod
    def from_complete(relations: Mapping[str, Relation]) -> "UDatabase":
        """Lift a classical database: all relations complete."""
        lifted = {name: URelation.from_complete(rel) for name, rel in relations.items()}
        return UDatabase(lifted, VariableTable(), set(relations))

    # ------------------------------------------------------------ access
    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def relation(self, name: str) -> URelation:
        try:
            return self.relations[name]
        except KeyError as exc:
            raise KeyError(f"unknown relation {name!r}") from exc

    def is_complete(self, name: str) -> bool:
        return name in self.complete

    def schema_of(self, name: str) -> tuple[str, ...]:
        return self.relation(name).columns

    @property
    def relation_names(self) -> frozenset[str]:
        return frozenset(self.relations)

    # ------------------------------------------------------------ mutation
    @property
    def version(self) -> int:
        """Relation-assignment counter (W mutations are counted by ``w.version``)."""
        return self._version

    def set_relation(self, name: str, urel: URelation, complete: bool = False) -> None:
        """Session-style assignment ``name := urel`` (as in Example 2.2).

        Atomic under the database lock: the relation insert, the version
        bump, and the completeness flag move together, so a concurrent
        reader (or a racing assignment on a threaded server) never sees
        a version that disagrees with the contents.
        """
        if complete and not urel.is_certain:
            raise ValueError("cannot mark a conditioned relation complete")
        with self._lock:
            self.relations[name] = urel
            self._version += 1
            if complete:
                self.complete.add(name)
            else:
                self.complete.discard(name)

    def ensure_columnar_context(self, factory):
        """Attach (or return) the database's columnar coding context, atomically.

        Evaluators previously did a check-then-act on
        ``columnar_context`` directly; two evaluators racing on a shared
        database from different threads could then each attach a private
        context and thrash the per-relation encoding memos.  ``factory``
        is only invoked under the database lock, by the one caller that
        wins the race.
        """
        with self._lock:
            if self.columnar_context is None:
                self.columnar_context = factory()
            return self.columnar_context

    def copy(self) -> "UDatabase":
        """Independent copy for non-destructive evaluation — *fully* private.

        Everything mutable is the copy's own: the W table, the condition
        pool, and (when attached) the columnar coding context, the
        latter two as warm snapshots.  ``connect(source, copy=True)``
        promises "a private copy of the database"; sharing the pool or
        context would let two "private" sessions mutate each other's
        interning/codec state — unsafe the moment sessions run on
        different threads or processes.
        """
        with self._lock:
            w = self.w.copy()
            pool = self.condition_pool.snapshot()
            context = (
                None
                if self.columnar_context is None
                else self.columnar_context.snapshot(w, pool)
            )
            return UDatabase(
                dict(self.relations),
                w,
                set(self.complete),
                pool,
                context,
            )

    # ------------------------------------------------------------- plumbing
    def __getstate__(self):
        # Snapshot under the lock so pickling (on a pool feeder thread)
        # never iterates a dict a concurrent set_relation is resizing.
        with self._lock:
            return (
                dict(self.relations),
                self.w,
                set(self.complete),
                self.condition_pool,
                self._version,
            )

    def __setstate__(self, state) -> None:
        # The lock is recreated and the columnar context dropped: numpy
        # coding state is process-local scratch, rebuilt on demand.
        self.relations, self.w, self.complete, self.condition_pool, self._version = state
        self.columnar_context = None
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}({len(rel)} rows{'*' if name in self.complete else ''})"
            for name, rel in sorted(self.relations.items())
        )
        return f"UDatabase[{parts}; {len(self.w)} vars]"
