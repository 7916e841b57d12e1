"""Exact probability of a disjunction of partial functions.

Exact confidence computation is #P-complete on U-relational databases
(Theorem 3.4, after [10, 7]); these solvers are the "#P-oracle"
subprocedure that the complexity results presuppose.

Two implementations:

``probability_by_enumeration``
    The literal definition: sum the weights of all total assignments to
    the variables of F that satisfy F.  Exponential in the number of
    variables; used as ground truth in tests.

``probability_by_decomposition``
    A variable-elimination solver: Shannon expansion on a branching
    variable, with two standard optimizations — independent-component
    factoring (clauses on disjoint variables are independent, so the
    disjunction's failure probability factors) and memoization.  Still
    exponential in the worst case (it must be, unless #P collapses) but
    fast on practically-structured inputs; this is the ablation subject
    of experiment E17.

Both preserve exact rational arithmetic when the W table holds Fractions.
Callers choose between them by strategy object
(:class:`~repro.confidence.strategies.ExactDecomposition` /
:class:`~repro.confidence.strategies.ExactEnumeration`), not by name.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product

from repro.confidence.dnf import Dnf
from repro.urel.conditions import Condition, Var
from repro.urel.variables import VariableTable
from repro.worlds.database import Prob

__all__ = [
    "probability_by_enumeration",
    "probability_by_decomposition",
    "EnumerationLimitError",
]


class EnumerationLimitError(RuntimeError):
    """Raised when enumeration would visit too many assignments."""


def probability_by_enumeration(dnf: Dnf, max_assignments: int = 2_000_000) -> Prob:
    """Sum of world weights satisfying F, by brute-force enumeration."""
    if dnf.is_empty:
        return Fraction(0)
    if dnf.is_trivially_true:
        return Fraction(1)
    variables = sorted(dnf.variables, key=repr)
    n_assignments = 1
    for var in variables:
        n_assignments *= len(dnf.w.domain(var))
        if n_assignments > max_assignments:
            raise EnumerationLimitError(
                f"enumeration over {n_assignments}+ assignments exceeds the "
                f"limit {max_assignments}; use probability_by_decomposition"
            )
    total: Prob = Fraction(0)
    domains = [dnf.w.domain(var) for var in variables]
    for values in iter_product(*domains):
        world = dict(zip(variables, values))
        if dnf.evaluate(world):
            weight: Prob = Fraction(1)
            for var, value in world.items():
                weight = weight * dnf.w.prob(var, value)
            total = total + weight
    return total


def probability_by_decomposition(dnf: Dnf) -> Prob:
    """Exact probability via Shannon expansion with independence factoring."""
    if dnf.is_empty:
        return Fraction(0)
    if dnf.is_trivially_true:
        return Fraction(1)
    solver = _Decomposition(dnf.w)
    return solver.solve(frozenset(dnf.members))


class _SortKeys(dict):
    """``repr`` of each clause or variable, formatted once per solver run.

    Every traversal order in the solvers is "sorted by ``repr``", and
    ``Condition.__repr__`` re-sorts and re-formats its pairs on each
    call.  The memo lives and dies with one solver: conditions stay two
    slots wide however many of them a relation holds.
    """

    __slots__ = ()

    def __missing__(self, item) -> str:
        key = self[item] = repr(item)
        return key


class _Decomposition:
    """Memoized Shannon-expansion solver over clause sets."""

    __slots__ = ("w", "_memo", "_keys")

    def __init__(self, w: VariableTable):
        """Bind the W table; the memo starts empty."""
        self.w = w
        self._memo: dict[frozenset[Condition], Prob] = {}
        self._keys = _SortKeys()

    def solve(self, clauses: frozenset[Condition]) -> Prob:
        """The exact probability that some clause in ``clauses`` holds."""
        if not clauses:
            return Fraction(0)
        if any(c.is_empty for c in clauses):
            return Fraction(1)
        cached = self._memo.get(clauses)
        if cached is not None:
            return cached

        components = _connected_components(clauses, self._keys)
        if len(components) > 1:
            # Disjoint variable sets: the events "some clause of component i
            # holds" are independent, so the union's complement factors.
            miss: Prob = Fraction(1)
            for component in components:
                miss = miss * (1 - self.solve(component))
            result: Prob = 1 - miss
        else:
            var = _branching_variable(clauses, self._keys)
            result = Fraction(0)
            for value in self.w.domain(var):
                reduced = self._condition_on(clauses, var, value)
                if reduced is _SATISFIED:
                    branch: Prob = Fraction(1)
                else:
                    branch = self.solve(reduced)
                result = result + self.w.prob(var, value) * branch

        self._memo[clauses] = result
        return result

    @staticmethod
    def _condition_on(clauses: frozenset[Condition], var: Var, value):
        """Simplify the clause set under X := value.

        Clauses requiring a different value die; clauses requiring this
        value lose the variable (an emptied clause satisfies everything).
        """
        out: set[Condition] = set()
        for clause in clauses:
            if var in clause:
                if clause[var] != value:
                    continue
                rest = clause.restricted_to(clause.variables - {var})
                if rest.is_empty:
                    return _SATISFIED
                out.add(rest)
            else:
                out.add(clause)
        return frozenset(out)


class _Satisfied:
    """Sentinel: conditioning made some clause trivially true."""

    __slots__ = ()


_SATISFIED = _Satisfied()


def _connected_components(
    clauses: frozenset[Condition], keys: _SortKeys
) -> list[frozenset[Condition]]:
    """Partition clauses into groups sharing no variables (union-find)."""
    clause_list = sorted(clauses, key=keys.__getitem__)
    parent = list(range(len(clause_list)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    owner: dict[Var, int] = {}
    for i, clause in enumerate(clause_list):
        for var in clause.variables:
            if var in owner:
                union(i, owner[var])
            else:
                owner[var] = i

    groups: dict[int, set[Condition]] = {}
    for i, clause in enumerate(clause_list):
        groups.setdefault(find(i), set()).add(clause)
    return [frozenset(g) for g in groups.values()]


def _branching_variable(clauses: frozenset[Condition], keys: _SortKeys) -> Var:
    """Most frequently-occurring variable (ties broken by repr for determinism)."""
    counts: dict[Var, int] = {}
    for clause in clauses:
        for var in clause.variables:
            counts[var] = counts.get(var, 0) + 1
    return max(sorted(counts, key=keys.__getitem__), key=lambda v: counts[v])
