"""#P-hard confidence instances: monotone bipartite 2-DNF.

Counting satisfying assignments of a monotone bipartite 2-DNF formula
⋁_{(i,j)∈E} (xᵢ ∧ yⱼ) is #P-complete (Provan & Ball; the reduction
behind the #P-hardness of confidence computation in [10, 7] cited by
Theorem 3.4).  These generators produce the corresponding disjunctions
of partial functions — one clause per edge of a random bipartite graph —
both as raw :class:`~repro.confidence.dnf.Dnf` objects and as a
U-relational database whose single tuple has exactly that confidence.

Experiment E4 uses this family to exhibit the exponential exact-vs-
polynomial Karp–Luby scaling shape claimed by Theorem 3.4 / Cor. 4.3.
"""

from __future__ import annotations

import random
from fractions import Fraction

from repro.confidence.dnf import Dnf
from repro.urel.conditions import Condition
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.rng import ensure_rng

__all__ = ["bipartite_2dnf", "bipartite_2dnf_database", "chain_dnf", "circulant_2dnf"]


def _bipartite_edges(
    n_left: int,
    n_right: int,
    edge_probability: float,
    rng: random.Random,
) -> list[tuple[int, int]]:
    edges = [
        (i, j)
        for i in range(n_left)
        for j in range(n_right)
        if rng.random() < edge_probability
    ]
    if not edges:  # keep instances non-degenerate
        edges = [(0, 0)]
    return edges


def bipartite_2dnf(
    n_left: int,
    n_right: int,
    edge_probability: float = 0.4,
    var_probability: float = 0.5,
    rng: random.Random | int | None = None,
) -> Dnf:
    """A monotone bipartite 2-DNF disjunction over fresh Boolean variables."""
    generator = ensure_rng(rng)
    w = VariableTable()
    for i in range(n_left):
        w.add(("x", i), {1: var_probability, 0: 1 - var_probability})
    for j in range(n_right):
        w.add(("y", j), {1: var_probability, 0: 1 - var_probability})
    edges = _bipartite_edges(n_left, n_right, edge_probability, generator)
    clauses = [Condition({("x", i): 1, ("y", j): 1}) for i, j in edges]
    return Dnf(clauses, w)


def bipartite_2dnf_database(
    n_left: int,
    n_right: int,
    edge_probability: float = 0.4,
    var_probability: float = 0.5,
    rng: random.Random | int | None = None,
    relation_name: str = "Hard",
) -> UDatabase:
    """A UDatabase whose relation holds one 0-ary tuple per 2-DNF clause.

    ``conf`` of the single possible tuple is exactly the 2-DNF
    probability — the #P-hard quantity.
    """
    dnf = bipartite_2dnf(n_left, n_right, edge_probability, var_probability, rng)
    rows = frozenset((clause, ()) for clause in dnf.members)
    urel = URelation((), rows)
    return UDatabase({relation_name: urel}, dnf.w, set())


def circulant_2dnf(
    side: int,
    offsets: tuple[int, ...] = (0, 1, 3),
    rng: random.Random | int | None = None,
    w: VariableTable | None = None,
    tag: object = "c",
) -> Dnf:
    """A circulant bipartite 2-DNF over ``2·side`` variables.

    xᵢ is joined to y_{π(i+d)} for each d in ``offsets``, so
    |F| = side·|offsets| and the shape are fixed; ``rng`` draws the relabelling π and each
    variable's probability (a percentage in [20, 60]).  Variables are
    named ``(tag, "x"|"y", i)`` and added to ``w`` (a fresh table by
    default), so several such disjunctions can share one database.
    Unlike small :func:`bipartite_2dnf` instances, the default offsets
    leave the bound solver loose at its default budget once side ≥ 8
    (consecutive offsets do not: it solves those exactly).
    """
    generator = ensure_rng(rng)
    w = VariableTable() if w is None else w
    for half in ("x", "y"):
        for i in range(side):
            p = Fraction(generator.randint(20, 60), 100)
            w.add((tag, half, i), {1: p, 0: 1 - p})
    relabel = list(range(side))
    generator.shuffle(relabel)
    clauses = [
        Condition({(tag, "x", i): 1, (tag, "y", relabel[(i + d) % side]): 1})
        for i in range(side)
        for d in offsets
    ]
    return Dnf(clauses, w)


def chain_dnf(
    length: int,
    var_probability: float = 0.5,
    overlap: bool = True,
) -> Dnf:
    """A chain-structured DNF: clause i is (xᵢ ∧ xᵢ₊₁) (or disjoint pairs).

    Chains are *easy* for the decomposition solver (linear after
    conditioning) yet non-trivial for enumeration — the contrast used by
    the E17 ablation.
    """
    w = VariableTable()
    n_vars = length + 1 if overlap else 2 * length
    for i in range(n_vars):
        w.add(("x", i), {1: var_probability, 0: 1 - var_probability})
    if overlap:
        clauses = [
            Condition({("x", i): 1, ("x", i + 1): 1}) for i in range(length)
        ]
    else:
        clauses = [
            Condition({("x", 2 * i): 1, ("x", 2 * i + 1): 1})
            for i in range(length)
        ]
    return Dnf(clauses, w)
