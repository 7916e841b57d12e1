"""Disjunctions of partial functions — the objects confidence is computed on.

"The confidence of tuple t for relation R represented in a U-relational
database is the weight of F = {f | ⟨f, t⟩ ∈ U_R}" (Section 4): the
probability that at least one of the partial functions in F is satisfied
by the random world.  This module packages F, in a fixed member order,
with the W table; the member weights p_f and their sum M that the
Karp–Luby estimator needs are computed on first read (exact and bound
solvers never read them).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from repro.urel.conditions import Condition, Var
from repro.urel.variables import VariableTable
from repro.worlds.database import Prob

__all__ = ["Dnf", "lineage"]


class Dnf:
    """A disjunction F of partial functions over a variable table W.

    Members keep a fixed order (the estimator's tie-breaking uses "the one
    of the smallest index", Definition 4.1 step 3).  Duplicate members are
    removed, preserving first occurrence.
    """

    __slots__ = ("w", "members", "_weights", "_variables", "_bounds")

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
        """M = Σ_{f ∈ F} p_f (Section 4)."""
        total: Prob = Fraction(0)
        for p in self.weights:
            total = total + p
        return total

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
        """The disjunction F for data tuple ``row`` of a U-relation."""
        return Dnf(urelation.conditions_of(row), w)


def lineage(
    urelation, w: VariableTable, rows: Sequence[tuple] | None = None
) -> tuple[Sequence[tuple], list[Dnf]]:
    """The data tuples of a U-relation and the disjunction F of each.

    ``rows`` defaults to poss(R) in ``repr`` order — the order every
    confidence-closing operator computes, and a sampler draws, in.  The
    one place a relation's DNFs are built: each is read off the
    relation's cached tuple index, so the whole list costs one grouping
    pass over U_R.
    """
    if rows is None:
        rows = urelation.possible_tuples().sorted_rows()
    return rows, [Dnf.for_tuple(urelation, row, w) for row in rows]
