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
    factoring (clauses on disjoint variable sets are independent, so the
    disjunction's failure probability factors) and memoization.  Still
    exponential in the worst case (it must be, unless #P collapses) but
    fast on practically-structured inputs; this is the ablation subject
    of experiment E17.

Both Shannon solvers — this one and the budgeted bound solver of
:mod:`repro.confidence.dissociation` — walk a :class:`ClauseKernel`: the
DNF's members integer-coded once per solve, so conditioning filters
tuples of literal ids and component splitting merges variable bitmasks.
The coding keeps every order the ``Condition``-level solvers had, so
answers do not move: components and base-case members in the order of
the clauses' ``repr`` text, branches in ``w.domain(var)`` order, the
branching tie broken by the variables' ``repr``, and each clause's
weight folded in the item order of the condition it came from.

Both preserve exact rational arithmetic when the W table holds Fractions.
Callers choose between them by strategy object
(:class:`~repro.confidence.strategies.ExactDecomposition` /
:class:`~repro.confidence.strategies.ExactEnumeration`), not by name.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain
from itertools import product as iter_product

from repro.confidence.dnf import Dnf
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
    kernel = ClauseKernel(dnf)
    return _Decomposition(kernel).solve(kernel.clauses)


_ONE = Fraction(1)


class _Clause(tuple):
    """A coded clause: its literal ids, ascending, which is its ``repr`` order.

    Equal clauses are equal tuples whatever their history.  ``fold`` is
    the item order of the condition the clause came from (the order
    ``VariableTable.weight`` multiplies in) where that is not the
    ascending one; ``None`` otherwise, and then the object needs no
    ``__dict__``.
    """

    fold = None


def _clause(ids, fold: tuple[int, ...] | None) -> _Clause:
    """The clause of ``ids``, keeping ``fold`` only where it is not their order."""
    clause = _Clause(ids)
    if fold is not None and fold != clause:
        clause.fold = fold
    return clause


class _Memo(dict):
    """A dict that fills a missing entry with ``make(key)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class ClauseKernel:
    """A DNF's member conditions, integer-coded once per solve.

    Each distinct ``(var, value)`` is a literal id, ranked by ``repr`` of
    the pair, so a clause's ascending ids list its items in the order
    ``Condition.__repr__`` prints them; variables are ranked by ``repr``.
    A literal's probability (one ``w.prob`` read), a clause's text and
    variable bitmask, and a variable's branch table are filled on first
    use.  A clause set is a ``frozenset`` of :class:`_Clause` tuples,
    which is also the memo key.
    """

    __slots__ = ("clauses", "lit_var", "probs", "texts", "masks", "branches")

    def __init__(self, dnf: Dnf):
        """Code ``dnf.members`` over ``dnf.w``."""
        w = dnf.w
        items = sorted({item for cond in dnf.members for item in cond.items()}, key=repr)
        ids = {item: lit for lit, item in enumerate(items)}
        variables = sorted({var for var, _ in items}, key=repr)
        rank = {var: i for i, var in enumerate(variables)}
        lit_var = self.lit_var = [rank[var] for var, _ in items]
        text = [f"{var!r}↦{value!r}" for var, value in items]
        probs = self.probs = _Memo(lambda lit: w.prob(*items[lit]))
        self.texts = _Memo(lambda clause: "{" + ", ".join(map(text.__getitem__, clause)) + "}")
        self.masks = _Memo(lambda clause: sum(1 << lit_var[lit] for lit in clause))

        def branch_table(v: int) -> list[tuple[Prob, int]]:
            # (Pr[X = x], literal id of X ↦ x or −1) for each x, in domain order
            var, table = variables[v], []
            for value in w.domain(var):
                lit = ids.get((var, value), -1)
                table.append((probs[lit] if lit >= 0 else w.prob(var, value), lit))
            return table

        self.branches = _Memo(branch_table)
        members = []
        for cond in dnf.members:
            fold = tuple(ids[item] for item in cond.items())
            members.append(_clause(sorted(fold), fold))
        self.clauses = frozenset(members)

    def weight(self, clause: _Clause, start: Prob = _ONE, given=()) -> Prob:
        """``w.weight`` of the clause's condition, folded in its item order.

        From ``start`` = the weight of clause ``given``, the items
        ``given`` lacks continue that fold: the weight of the union.
        """
        if start == 0 and type(start) is Fraction:  # given's fold stopped at a zero
            return start
        p, probs = start, self.probs
        for lit in clause.fold or clause:
            if lit not in given:
                q = probs[lit]
                if q == 0:
                    return Fraction(0)
                # Fraction(1) * q is q itself for a float q: skip the slow path
                p = q if p is _ONE and type(q) is float else p * q
        return p

    def components(self, clauses: frozenset[_Clause]) -> list[frozenset[_Clause]]:
        """Groups of clauses sharing no variable, ordered by their least text.

        Each group floods out from one clause, absorbing every clause whose
        variable bitmask meets the group's until none does.
        """
        masks, rest, groups = self.masks, set(clauses), []
        while rest:
            seed = rest.pop()
            members, reach = {seed}, masks[seed]
            grown = {c for c in rest if masks[c] & reach}
            while grown:
                rest -= grown
                members |= grown
                for clause in grown:
                    reach |= masks[clause]
                grown = {c for c in rest if masks[c] & reach}
            if not groups and not rest:
                return [clauses]
            groups.append(frozenset(members))
        least = self.texts.__getitem__
        return sorted(groups, key=lambda group: min(map(least, group)))

    def branching_variable(self, clauses: frozenset[_Clause]) -> int:
        """The most frequent variable; a tie goes to the least ``repr``."""
        counts = Counter(map(self.lit_var.__getitem__, chain.from_iterable(clauses)))
        top = max(counts.values())
        return min(v for v, n in counts.items() if n == top)

    def condition(self, clauses: frozenset[_Clause], v: int, lit: int):
        """The clause set under variable ``v`` := the value of literal ``lit``.

        Clauses demanding another value die; clauses demanding this one
        lose the literal.  ``None`` when that empties a clause (the set
        holds in every world).  A shortened clause equal to one that does
        not mention ``v`` gives way to it.
        """
        bit, masks = 1 << v, self.masks
        hit = {c for c in clauses if masks[c] & bit}
        shortened: set[_Clause] = set()
        keep = lit.__ne__
        for clause in hit:
            if lit in clause:
                if len(clause) == 1:
                    return None
                fold = clause.fold and tuple(filter(keep, clause.fold))
                shortened.add(_clause(filter(keep, clause), fold))
        return (clauses - hit) | shortened


class _Decomposition:
    """Memoized Shannon-expansion solver over coded clause sets."""

    __slots__ = ("kernel", "_memo")

    def __init__(self, kernel: ClauseKernel):
        """Bind the coded DNF; the memo starts empty."""
        self.kernel = kernel
        self._memo: dict[frozenset[_Clause], Prob] = {}

    def solve(self, clauses: frozenset[_Clause]) -> Prob:
        """The exact probability that some clause in ``clauses`` holds."""
        if not clauses:
            return Fraction(0)
        cached = self._memo.get(clauses)
        if cached is not None:
            return cached

        kernel = self.kernel
        components = kernel.components(clauses)
        if len(components) > 1:
            # Disjoint variable sets: the events "some clause of component i
            # holds" are independent, so the union's complement factors.
            miss: Prob = Fraction(1)
            for component in components:
                miss = miss * (1 - self.solve(component))
            result: Prob = 1 - miss
        else:
            v = kernel.branching_variable(clauses)
            result = Fraction(0)
            for p, lit in kernel.branches[v]:
                reduced = kernel.condition(clauses, v, lit)
                branch = Fraction(1) if reduced is None else self.solve(reduced)
                result = result + p * branch

        self._memo[clauses] = result
        return result
