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
DNF's members integer-coded once per solve, and a clause set held as
integer bitmasks over clause ids.  Conditioning, component flooding,
the branching count and the memo lookup are a few big-integer
operations per variable, not a pass over every clause.  The coding
keeps every order the ``Condition``-level solvers had, so answers do not
move: components and base-case members in the order of the clauses'
``repr`` text, branches in ``w.domain(var)`` order, the branching tie
broken by the variables' ``repr``, and each clause's weight folded in
the item order of the condition it came from.  The memo key ignores
that fold, as clause equality always did.

Both preserve exact rational arithmetic when the W table holds Fractions.
Callers choose between them by strategy object
(:class:`~repro.confidence.strategies.ExactDecomposition` /
:class:`~repro.confidence.strategies.ExactEnumeration`), not by name.
"""

from __future__ import annotations

from fractions import Fraction
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
    return _Decomposition(kernel).solve(kernel.clauses, kernel.key)


_ONE = Fraction(1)


class _Memo(dict):
    """A dict that fills a missing entry with ``make(key)``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def clause_ids(mask: int) -> list[int]:
    """The clause ids set in ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class ClauseKernel:
    """A DNF's member conditions, integer-coded once per solve.

    Each distinct ``(var, value)`` is a literal id, ranked by ``repr`` of
    the pair, so a clause's ascending ids list its items in the order
    ``Condition.__repr__`` prints them; variables are ranked by ``repr``.

    A clause is an id, one per (ascending literal tuple, fold): ``lits``
    holds the tuple, ``folds`` the item order of the condition the clause
    came from (the order ``VariableTable.weight`` multiplies in) or
    ``None`` where that is the ascending one, and ``masks`` its variable
    bitmask.  The members take ids 0…n−1; conditioning mints the
    shortened clauses as it meets them.  Each literal tuple also has a
    *canonical* id, whatever its fold, and ``keys[id]`` is that id's bit.

    A clause set is two bitmasks: ``ids`` over clause ids and ``key``
    over canonical ids.  The key is the memo key — fold-blind, as set
    equality of clauses always was — and, since a set never holds two
    clauses with one literal tuple, it is a function of ``ids``.
    ``clauses`` / ``key`` are the members' set.  ``var_ids`` /
    ``lit_ids`` give the ids mentioning each variable / holding each
    literal, ``var_keys`` the canonical ids mentioning each variable.  A
    literal's probability (one ``w.prob`` read), a clause's
    ``Condition.__repr__`` text and a variable's branch table are filled
    on first use.
    """

    def __init__(self, dnf: Dnf):
        """Code ``dnf.members`` over ``dnf.w``."""
        w = dnf.w
        items = sorted({item for cond in dnf.members for item in cond.items()}, key=repr)
        ids = {item: lit for lit, item in enumerate(items)}
        variables = sorted({var for var, _ in items}, key=repr)
        rank = {var: i for i, var in enumerate(variables)}
        self.lit_var = [rank[var] for var, _ in items]
        item_text = [f"{var!r}↦{value!r}" for var, value in items]
        probs = self.probs = _Memo(lambda lit: w.prob(*items[lit]))
        self.texts = _Memo(
            lambda clause: "{" + ", ".join(map(item_text.__getitem__, self.lits[clause])) + "}"
        )

        def branch_table(v: int) -> list[tuple[Prob, int]]:
            # (Pr[X = x], literal id of X ↦ x or −1) for each x, in domain order
            var, table = variables[v], []
            for value in w.domain(var):
                lit = ids.get((var, value), -1)
                table.append((probs[lit] if lit >= 0 else w.prob(var, value), lit))
            return table

        self.branches = _Memo(branch_table)
        self.lits: list[tuple[int, ...]] = []
        self.folds: list[tuple[int, ...] | None] = []
        self.keys: list[int] = []
        self.masks: list[int] = []
        self.var_ids = [0] * len(variables)
        self.lit_ids = [0] * len(items)
        self.var_keys = [0] * len(variables)
        self.units = 0
        self._by_clause: dict[tuple, int] = {}
        self._by_lits: dict[tuple[int, ...], int] = {}
        self._children: dict[int, int] = {}
        for cond in dnf.members:  # distinct conditions: distinct literal tuples
            fold = tuple(ids[item] for item in cond.items())
            lits = tuple(sorted(fold))
            self._mint(lits, None if fold == lits else fold)
        n = len(dnf.members)
        self.clauses = self.key = (1 << n) - 1

    def _mint(self, lits: tuple[int, ...], fold: tuple[int, ...] | None) -> int:
        """A fresh id for the clause ``lits`` folding in ``fold``."""
        clause = len(self.lits)
        self._by_clause[lits, fold] = clause
        bit, lit_var = 1 << clause, self.lit_var
        key = self._by_lits.get(lits)
        if key is None:
            key = self._by_lits[lits] = 1 << len(self._by_lits)
            for lit in lits:
                self.var_keys[lit_var[lit]] |= key
        mask = 0
        for lit in lits:
            v = lit_var[lit]
            self.lit_ids[lit] |= bit
            self.var_ids[v] |= bit
            mask |= 1 << v
        if len(lits) == 1:
            self.units |= bit
        self.lits.append(lits)
        self.folds.append(fold)
        self.keys.append(key)
        self.masks.append(mask)
        return clause

    def weight(self, clause: int, start: Prob = _ONE, given=()) -> Prob:
        """``w.weight`` of the clause's condition, folded in its item order.

        From ``start`` = the weight of the clause with literals ``given``,
        the items ``given`` lacks continue that fold: the weight of the
        union.
        """
        if start == 0 and type(start) is Fraction:  # given's fold stopped at a zero
            return start
        p, probs = start, self.probs
        for lit in self.folds[clause] or self.lits[clause]:
            if lit not in given:
                q = probs[lit]
                if q == 0:
                    return Fraction(0)
                # Fraction(1) * q is q itself for a float q: skip the slow path
                p = q if p is _ONE and type(q) is float else p * q
        return p

    def components(self, ids: int, key: int) -> list[tuple[int, int]]:
        """Sets of clauses sharing no variable, ordered by their least text.

        Each group floods out from its least variable over the variables
        its clauses meet.  A connected set comes back alone, as it came.
        """
        var_ids, var_keys = self.var_ids, self.var_keys
        left = []
        for v, mask in enumerate(var_ids):
            mask &= ids
            if mask:
                left.append((v, mask))
        groups = []
        while left:
            (v, group), *left = left
            group_key, grown = var_keys[v], True
            while grown:
                grown, rest = False, []
                for v, mask in left:
                    if mask & group:
                        group |= mask
                        group_key |= var_keys[v]
                        grown = True
                    else:
                        rest.append((v, mask))
                left = rest
            if not groups and not left:
                return [(ids, key)]
            groups.append((group, group_key & key))
        texts = self.texts.__getitem__
        return sorted(groups, key=lambda group: min(map(texts, clause_ids(group[0]))))

    def branching_variable(self, ids: int) -> int:
        """The variable most clauses mention; a tie goes to the least ``repr``."""
        best, top = -1, 0
        for v, mask in enumerate(self.var_ids):
            count = (mask & ids).bit_count()
            if count > top:
                best, top = v, count
        return best

    def condition(self, ids: int, key: int, v: int, lit: int) -> tuple[int, int] | None:
        """The clause set under variable ``v`` := the value of literal ``lit``.

        Clauses demanding another value die; clauses demanding this one
        lose the literal.  ``None`` when that empties a clause (the set
        holds in every world).  A shortened clause whose literals a clause
        not mentioning ``v`` already holds gives way to it.
        """
        hit = ids & self.var_ids[v]
        ids ^= hit
        key &= ~self.var_keys[v]
        if lit < 0:
            return ids, key
        shortened = hit & self.lit_ids[lit]
        if shortened & self.units:
            return None
        # Two parents never shorten to one clause (they would be equal),
        # so only the clauses that never mentioned v can hold a child.
        keys, children, step = self.keys, self._children, len(self.lit_ids)
        while shortened:
            low = shortened & -shortened
            shortened ^= low
            parent = low.bit_length() - 1
            child = children.get(parent * step + lit)
            if child is None:
                child = children[parent * step + lit] = self._shorten(parent, lit)
            bit = keys[child]
            if not key & bit:
                ids |= 1 << child
                key |= bit
        return ids, key

    def _shorten(self, parent: int, lit: int) -> int:
        """The id of clause ``parent`` without ``lit``, its fold kept."""
        keep = lit.__ne__
        lits = tuple(filter(keep, self.lits[parent]))
        fold = self.folds[parent]
        if fold is not None:
            fold = tuple(filter(keep, fold))
            if fold == lits:
                fold = None
        clause = self._by_clause.get((lits, fold))
        return self._mint(lits, fold) if clause is None else clause


class _Decomposition:
    """Memoized Shannon-expansion solver over coded clause sets."""

    __slots__ = ("kernel", "_memo")

    def __init__(self, kernel: ClauseKernel):
        """Bind the coded DNF; the memo starts empty."""
        self.kernel = kernel
        self._memo: dict[int, Prob] = {}

    def solve(self, ids: int, key: int, connected: bool = False) -> Prob:
        """The exact probability that some clause of the set ``ids`` / ``key`` holds.

        ``connected`` skips the component check of a set known to be one.
        """
        if not ids:
            return Fraction(0)
        cached = self._memo.get(key)
        if cached is not None:
            return cached

        kernel = self.kernel
        parts = () if connected else kernel.components(ids, key)
        if len(parts) > 1:
            # Disjoint variable sets: the events "some clause of component i
            # holds" are independent, so the union's complement factors.
            miss: Prob = Fraction(1)
            for part in parts:
                miss = miss * (1 - self.solve(*part, True))
            result: Prob = 1 - miss
        else:
            v = kernel.branching_variable(ids)
            result = Fraction(0)
            for p, lit in kernel.branches[v]:
                reduced = kernel.condition(ids, key, v, lit)
                branch = Fraction(1) if reduced is None else self.solve(*reduced)
                result = result + p * branch

        self._memo[key] = result
        return result
