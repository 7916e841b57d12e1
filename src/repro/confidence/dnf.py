"""Disjunctions of partial functions — the objects confidence is computed on.

"The confidence of tuple t for relation R represented in a U-relational
database is the weight of F = {f | ⟨f, t⟩ ∈ U_R}" (Section 4): the
probability that at least one of the partial functions in F is satisfied
by the random world.  This module packages F with the W table.  F is a
set: ``members`` keeps the order it was handed (the order a relation's
tuple index happens to hold), and nothing that reads an answer off F
depends on that order.  :func:`lineage` hands a tuple whose F holds the
empty condition ⊤ just ``{⊤}``: its weight is 1 either way.  What the
samplers need is built on first use and kept on the object: the member
weights p_f on first read, the integer block encoding
(:class:`repro.confidence.batch._EncodedDnf`) on the first Karp–Luby
draw or read of M.  The encoding indexes F in one
order fixed by the data, the one Definition 4.1's "smallest index" and
M's float sum follow.  Exact and bound solvers read neither, and a value
a point enclosure or a certified predicate settles never draws.  Both
are pure functions of the member set and W, so a disjunction the
Theorem 6.7 driver reuses across its doublings pays for them once.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from repro.urel.conditions import TOP, Condition, Var
from repro.urel.variables import VariableTable
from repro.worlds.database import Prob

__all__ = ["Dnf", "lineage"]


class Dnf:
    """A disjunction F of partial functions over a variable table W.

    Duplicate members are removed, preserving first occurrence.  The
    member order is not part of the value: the estimator's tie-break
    ("the one of the smallest index", Definition 4.1 step 3) reads the
    order :attr:`encoded` fixes from the data.
    """

    __slots__ = ("w", "members", "_weights", "_encoded", "_variables", "_bounds")

    def __init__(self, conditions: Iterable[Condition], w: VariableTable):
        """Build the disjunction from ``conditions`` over W table ``w``."""
        self.w = w
        # Lazy per-budget memo for repro.confidence.dissociation — the
        # bound interval is a pure function of (members, W), so repeated
        # routing/pruning questions about one disjunction are free.
        self._bounds = None
        seen: set[Condition] = set()
        members: list[Condition] = []
        for cond in conditions:
            if cond not in seen:
                seen.add(cond)
                members.append(cond)
        self.members: tuple[Condition, ...] = tuple(members)
        variables: set[Var] = set()
        for f in self.members:
            variables |= f.variables
        self._variables = frozenset(variables)

    # ------------------------------------------------------------- metrics
    def __len__(self) -> int:
        """The member count |F| (same as :attr:`size`)."""
        return len(self.members)

    @property
    def size(self) -> int:
        """|F| — drives the Karp–Luby sample-size bound (Section 4)."""
        return len(self.members)

    @property
    def variables(self) -> frozenset[Var]:
        """The variables mentioned by any member condition."""
        return self._variables

    @property
    def weights(self) -> tuple[Prob, ...]:
        """The member weights p_f in member order, computed on first read.

        Pure: racing threads build equal tuples, an unpickled copy its own.
        """
        try:
            return self._weights
        except AttributeError:
            self._weights = tuple(self.w.weight(f) for f in self.members)
            return self._weights

    @property
    def total_weight(self) -> Prob:
        """M = Σ_{f ∈ F} p_f (Section 4), summed in :attr:`encoded`'s order.

        Float weights round by order, so the sum runs in the order the
        sampler indexes F, and M is a function of the member set.
        """
        weights = self.weights
        total: Prob = Fraction(0)
        for j in self.encoded.order:
            total = total + weights[j]
        return total

    @property
    def encoded(self):
        """The block encoding the samplers draw from, built on first use and kept.

        A pure function of the member set and W, so every sampler of one
        ``Dnf`` shares it.  Racing threads may each build one; they are
        equal and the last write wins, like :attr:`weights`.  An
        unpickled copy carries the encoding if the original had it.
        """
        try:
            return self._encoded
        except AttributeError:
            from repro.confidence.batch import _EncodedDnf

            self._encoded = _EncodedDnf(self)
            return self._encoded

    @property
    def is_empty(self) -> bool:
        """An empty disjunction is false everywhere: probability 0."""
        return not self.members

    @property
    def is_trivially_true(self) -> bool:
        """Whether F contains the empty condition (every world satisfies it)."""
        return any(f.is_empty for f in self.members)

    # ------------------------------------------------------------- semantics
    def evaluate(self, world: Mapping[Var, object]) -> bool:
        """Is the disjunction satisfied by total assignment ``world``?"""
        return any(f.evaluate(world) for f in self.members)

    def __repr__(self) -> str:
        """Summary form; members are intentionally elided (can be huge)."""
        return f"Dnf({len(self.members)} members over {len(self._variables)} vars)"

    @staticmethod
    def for_tuple(urelation, row: Sequence, w: VariableTable) -> "Dnf":
        """The disjunction F for data tuple ``row`` of a U-relation.

        Every member is kept; the engine reads lineage through :func:`lineage`.
        """
        return Dnf(urelation.conditions_of(row), w)


_CERTAIN = (TOP,)


def lineage(
    rep, w: VariableTable, rows: Sequence[tuple] | None = None
) -> tuple[Sequence[tuple], list[Dnf]]:
    """The data tuples of a U-relation and the disjunction F of each.

    ``rep`` is a :class:`~repro.urel.urelation.URelation` or a
    :class:`~repro.urel.columnar.ColumnarURelation`; ``rows`` defaults to
    poss(R) in ``repr`` order — the order every confidence-closing
    operator computes, and a sampler draws, in.  The one place a
    relation's DNFs are built: each is read off the relation's
    ``lineage_index`` (one grouping pass over U_R), and a tuple whose
    conditions include ⊤ gets ``Dnf([⊤])``: Pr = 1 whatever else F holds,
    every strategy answers it without looking further, and its memo key
    is the same on both representations.  A columnar relation therefore
    decodes only the conditions of the tuples without ⊤.  A DNF's members
    come in the index's order; nothing reads it (:class:`Dnf`).
    """
    if rows is None:
        rows = rep.sorted_rows()
    index = rep.lineage_index()
    dnfs = []
    for row in rows:
        conditions = index.get(tuple(row), ())
        dnfs.append(Dnf(_CERTAIN if any(f.is_empty for f in conditions) else conditions, w))
    return rows, dnfs
