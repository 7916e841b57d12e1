"""Compiling calculus formulas to UA algebra; the Theorem 4.4 rewriting.

``compile_existential`` turns an existential query into a positive
relational-algebra query whose (0-ary) result is non-empty exactly in
the worlds where the formula holds; ``conf(π_∅(…))`` of it is then the
formula's probability — all inside positive UA[conf], as Theorem 4.4
requires.

``theorem_44_terms`` expands Pr[φ ∧ ψ₁ ∧ … ∧ ψ_m] (φ existential, ψⱼ
egds) by inclusion–exclusion over egd violations,

    Pr[φ ∧ ⋀ψⱼ] = Σ_{S ⊆ [m]} (−1)^{|S|} · Pr[φ ∧ ⋀_{j∈S} ¬ψⱼ],

each term being purely existential (the paper's m = 1 case is
Pr[φ] − Pr[φ ∧ ¬ψ] verbatim).  ``theorem_44_algebra`` assembles the
literal paper expression — confidence joins plus an arithmetic
projection — as a single UA query; ``theorem_44_probability`` evaluates
the rewriting robustly (terms with probability 0 produce empty
confidence relations, which the algebraic expression, like the paper's,
glosses over).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from repro.algebra.expressions import (
    Attr,
    BoolExpr,
    Cmp,
    Const,
    TRUE,
    Term,
)
from repro.algebra.operators import (
    NODE_TYPES,
    BaseRel,
    Conf,
    Join,
    Project,
    Query,
    Rename,
    Select,
    Union,
)
from repro.algebra.tree import fold, rebuild
from repro.calculus.queries import (
    ConjunctiveQuery,
    Egd,
    ExistentialQuery,
    QVar,
    rename_variables,
)
from repro.urel.evaluate import UEvaluator
from repro.urel.udatabase import UDatabase
from repro.worlds.database import Prob

__all__ = [
    "compile_conjunctive",
    "compile_existential",
    "resolve_positional",
    "boolean_confidence",
    "theorem_44_terms",
    "theorem_44_algebra",
    "theorem_44_probability",
]


def compile_conjunctive(cq: ConjunctiveQuery) -> Query:
    """A positive RA query returning the satisfying bindings of ``cq``.

    Output schema: one column per variable.  Atoms become renamed base
    relations (fresh names for constant/repeated positions plus the
    induced selections); shared variables join naturally.
    """
    fresh = itertools.count(1)
    plan: Query | None = None
    for atom in cq.atoms:
        mapping: dict[str, str] = {}
        conditions: list[BoolExpr] = []
        col_names: list[str] = []
        keep: list[str] = []
        for term in atom.terms:
            if isinstance(term, QVar):
                if term.name in col_names:
                    alias = f"__c{next(fresh)}"
                    conditions.append(Cmp("=", Attr(alias), Attr(term.name)))
                    col_names.append(alias)
                else:
                    col_names.append(term.name)
                    keep.append(term.name)
            else:
                alias = f"__c{next(fresh)}"
                conditions.append(Cmp("=", Attr(alias), Const(term)))
                col_names.append(alias)
        base_cols = [f"__a{i}" for i in range(len(atom.terms))]
        mapping = dict(zip(base_cols, col_names))
        node: Query = Rename(
            _positional(atom.relation, len(atom.terms), base_cols), mapping
        )
        for condition in conditions:
            node = Select(node, condition)
        node = Project(node, keep)
        plan = node if plan is None else Join(plan, node)
    assert plan is not None
    if cq.constraint is not TRUE:
        plan = Select(plan, cq.constraint)
    return plan


def _positional(relation: str, arity: int, names: Sequence[str]) -> Query:
    """Base relation with positional column aliases __a0.. (schema-agnostic).

    The calculus addresses columns by position; engines address them by
    name.  The evaluator-facing helper :func:`boolean_confidence` wraps
    databases so this rename is resolved against the real schema.
    """
    return _PositionalRel(relation, arity, tuple(names))


class _PositionalRel(Query):
    """Internal marker node: a base relation with positional aliases."""

    __slots__ = ("name", "arity", "aliases")

    def __init__(self, name: str, arity: int, aliases: tuple[str, ...]):
        self.name = name
        self.arity = arity
        self.aliases = aliases


_REBUILD = dict.fromkeys(NODE_TYPES, rebuild)


def resolve_positional(query: Query, db_schemas) -> Query:
    """Replace positional markers by Rename(BaseRel) against real schemas."""

    def resolve(marker: _PositionalRel) -> Query:
        cols = tuple(db_schemas[marker.name])
        if len(cols) != marker.arity:
            raise ValueError(
                f"atom arity {marker.arity} does not match relation "
                f"{marker.name!r} arity {len(cols)}"
            )
        return Rename(BaseRel(marker.name), dict(zip(cols, marker.aliases)))

    return fold(query, {**_REBUILD, _PositionalRel: resolve}, "resolve_positional")


def compile_existential(eq: ExistentialQuery) -> Query:
    """π_∅ of the union of compiled disjuncts: the 0-ary witness relation."""
    plan: Query | None = None
    for cq in eq.disjuncts:
        boolean = Project(compile_conjunctive(cq), [])
        plan = boolean if plan is None else Union(plan, boolean)
    assert plan is not None
    return plan


def boolean_confidence(eq: ExistentialQuery, db: UDatabase) -> Prob:
    """Pr[eq] via conf(π_∅(compiled)) on the U-relational engine.

    An empty confidence relation (the formula holds in no world) reads as
    probability 0.
    """
    schemas = {name: db.schema_of(name) for name in db.relation_names}
    plan = resolve_positional(compile_existential(eq), schemas)
    result = UEvaluator(db, copy_db=True).evaluate(Conf(plan, "P")).relation
    rows = list(result.rows)
    if not rows:
        return 0
    if len(rows) != 1:
        raise RuntimeError(f"0-ary confidence relation with {len(rows)} rows")
    return rows[0][1][0]


def theorem_44_terms(
    phi: ExistentialQuery, egds: Sequence[Egd]
) -> list[tuple[int, ExistentialQuery]]:
    """The inclusion–exclusion expansion of Pr[φ ∧ ⋀ egds].

    Returns (sign, existential query) pairs; summing sign·Pr[term] gives
    the probability.  With one egd this is the paper's
    Pr[φ] − Pr[φ ∧ ¬ψ].
    """
    terms: list[tuple[int, ExistentialQuery]] = []
    indices = range(len(egds))
    for r in range(len(egds) + 1):
        for subset in itertools.combinations(indices, r):
            term = phi
            for position, j in enumerate(subset):
                # Rename each negation's variables apart so conjunction
                # never collides (multiple egds may reuse variable names).
                negation = rename_variables(
                    egds[j].negation(), f"v{position}_{j}"
                )
                term = term.and_(negation)
            terms.append(((-1) ** r, term))
    return terms


def theorem_44_algebra(phi: ExistentialQuery, egd: Egd) -> Query:
    """The literal Theorem 4.4 expression for one egd:

        ρ_{P1−P2→P}( ρ_{P→P1}(conf(φ)) ⋈ ρ_{P→P2}(conf(φ ∧ ¬ψ)) ).

    Both conf arguments are 0-ary, so the join is a product and the
    output is the single row ⟨Pr[φ ∧ ψ]⟩ — provided Pr[φ ∧ ¬ψ] > 0 (an
    empty confidence relation annihilates the join; the robust evaluator
    is :func:`theorem_44_probability`).
    """
    left = Conf(compile_existential(phi), "P1")
    violation = rename_variables(egd.negation(), "viol")
    right = Conf(compile_existential(phi.and_(violation)), "P2")
    joined = Join(left, right)
    difference: Term = Attr("P1") - Attr("P2")
    return Project(joined, [(difference, "P")])


def theorem_44_probability(
    phi: ExistentialQuery, egds: Sequence[Egd], db: UDatabase
) -> Prob:
    """Pr[φ ∧ ⋀ egds] via the Theorem 4.4 rewriting on the UA engine."""
    total: Prob = 0
    for sign, term in theorem_44_terms(phi, egds):
        total = total + sign * boolean_confidence(term, db)
    return total
