"""Selection pushdown: filter before you join.

Section 3's parsimonious translations leave a row's condition alone
under σ — a selection only filters data values — so the classical
rewrite σ_φ(R ⋈ S) = σ_φ(R) ⋈ S holds on U-relations exactly as it does
on relations.  :func:`push` applies it as one rewrite pass over the
operator AST: every ``Select``'s condition is split into conjuncts, and
a *copy* of each conjunct goes on the lowest operand whose schema covers
it.  The ``Select`` as written stays where it is, so the pass only ever
adds nodes — copies, marked ``Select.pushed`` — and :func:`strip` takes
them out again: ``strip(push(q)) == q`` and ``push(push(q)) == push(q)``.

A copy passes through ``select``, ``rename`` (attributes mapped back),
``project`` (plain-attribute items only), ``union`` (to both sides),
``product`` and ``join`` (to each side whose schema covers it: both, for
a conjunct over join attributes).  It is placed only once it has crossed
one of the last three — a copy exists to shrink the operands of a merge.
Every other operator is a *barrier*, and a copy is never placed on or
under one:

* ``conf``, ``aconf``, ``cert`` and σ̂ — filtering below them changes
  which DNFs a sampled batch draws for, and with it the trial stream;
* ``repair-key`` — filtering first changes its weight normalisation;
* ``poss`` and ``difference``.

The evaluators run a copy like any selection, except that a copy whose
predicate raises one of :data:`PUSH_ERRORS` on its operand is skipped:
the operand passes unfiltered, and the ``Select`` as written decides —
on the rows it always saw — whether the query raises.

:data:`_ROUTES` says, per operator, where a selection goes from there;
a new operator needs an entry (``tests/test_operator_fold.py``).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.algebra import expressions as _expr
from repro.algebra.expressions import And, BoolExpr, attributes, rename_attributes
from repro.algebra.operators import (
    NODE_TYPES,
    ApproxConf,
    ApproxSelect,
    BaseRel,
    Cert,
    Conf,
    Difference,
    Join,
    Literal,
    Poss,
    Product,
    Project,
    Query,
    Rename,
    RepairKey,
    Select,
    Union,
    output_schema,
)
from repro.algebra.schema import SchemaError
from repro.algebra.tree import children, fold, rebuild

__all__ = ["push", "strip", "PUSH_ERRORS"]

PUSH_ERRORS = (ArithmeticError, TypeError)
"""What a copy's predicate may raise on its operand and be skipped for."""

_CONJUNCTS = {
    **dict.fromkeys(_expr.NODE_TYPES, lambda node, *parts: (node,)),
    And: lambda node, *parts: sum(parts, ()),
}

_PLAIN_ATTRIBUTE = {
    **dict.fromkeys(_expr.NODE_TYPES, lambda node, *parts: None),
    _expr.Attr: lambda node: node.name,
}


def _conjuncts(condition: BoolExpr) -> list[BoolExpr]:
    """``condition``'s conjuncts, nested ``And``s flattened, each once, in order."""
    return list(dict.fromkeys(fold(condition, _CONJUNCTS, "pushdown")))


# A route answers, for one node and the conjuncts arriving at it, which
# conjuncts go into each child (renamed to the child's attributes) and
# which stop here — or ``None``: a barrier, where they are dropped.
def _barrier(node, conjuncts, schemas):
    return None


def _leaf(node, conjuncts, schemas):
    return (), conjuncts


def _through_select(node: Select, conjuncts, schemas):
    enforced = set(_conjuncts(node.condition))
    return ([c for c in conjuncts if c not in enforced],), []


def _through_rename(node: Rename, conjuncts, schemas):
    back = {new: old for old, new in node.mapping}
    return ([rename_attributes(c, back) for c in conjuncts],), []


def _through_project(node: Project, conjuncts, schemas):
    source = {}
    for term, name in node.items:
        attribute = fold(term, _PLAIN_ATTRIBUTE, "pushdown")
        if attribute is not None:
            source[name] = attribute
    passes = [c for c in conjuncts if attributes(c) <= source.keys()]
    stops = [c for c in conjuncts if not attributes(c) <= source.keys()]
    return ([rename_attributes(c, source) for c in passes],), stops


def _through_union(node: Union, conjuncts, schemas):
    return (conjuncts, conjuncts), []


def _through_merge(node: Product | Join, conjuncts, schemas):
    sides = [frozenset(output_schema(child, schemas)) for child in children(node)]
    into = tuple([c for c in conjuncts if attributes(c) <= side] for side in sides)
    stops = [c for c in conjuncts if not any(attributes(c) <= side for side in sides)]
    return into, stops


_ROUTES = {
    BaseRel: _leaf,
    Literal: _leaf,
    Select: _through_select,
    Project: _through_project,
    Rename: _through_rename,
    Product: _through_merge,
    Join: _through_merge,
    Union: _through_union,
    Difference: _barrier,
    RepairKey: _barrier,
    Conf: _barrier,
    ApproxConf: _barrier,
    Poss: _barrier,
    Cert: _barrier,
    ApproxSelect: _barrier,
}
"""Operator → route: where a selection arriving at it goes next."""


def _sink(node: Query, conjuncts: Sequence[BoolExpr], schemas, crossed: bool) -> Query:
    """``node`` with a copy of each conjunct on the lowest operand covering it.

    ``crossed``: a merge lies between ``node`` and the ``Select`` the
    conjuncts come from, so a copy that stops here is worth placing.
    """
    routes = _ROUTES[type(node)](node, conjuncts, schemas)
    if routes is None:
        return node
    into, stops = routes
    below = crossed or len(into) > 1
    node = rebuild(
        node,
        *(
            _sink(child, onward, schemas, below) if onward else child
            for child, onward in zip(children(node), into)
        ),
    )
    if stops and crossed:
        node = Select(node, stops[0] if len(stops) == 1 else And(tuple(stops)), pushed=True)
    return node


class _BaseSchemas(dict):
    """``output_schema``'s base-relation schemas, looked up on first use."""

    def __init__(self, schema_of: Callable[[str], Sequence[str]]):
        super().__init__()
        self.schema_of = schema_of

    def __missing__(self, name: str) -> Sequence[str]:
        columns = self[name] = self.schema_of(name)
        return columns


_REBUILD = dict.fromkeys(NODE_TYPES, rebuild)

_STRIP = {**_REBUILD, Select: lambda node, child: child if node.pushed else rebuild(node, child)}


def strip(query: Query) -> Query:
    """``query`` without the copies :func:`push` placed: the plan as written."""
    return fold(query, _STRIP, "pushdown")


def push(query: Query, schema_of: Callable[[str], Sequence[str]]) -> Query:
    """``query`` with a copy of every selection conjunct pushed toward the scans.

    ``schema_of`` maps a base relation's name to its columns (raising
    ``KeyError`` for an unknown one).  Nothing ill-typed is copied — not
    a ``Select`` over an operand whose schema cannot be inferred, nor a
    conjunct naming attributes its operand lacks: the evaluator, not the
    pass, reports those.  Copies the argument already carries are
    replaced, so the pass is idempotent.
    """
    schemas = _BaseSchemas(schema_of)

    def select(node: Select, child: Query) -> Query:
        try:
            columns = frozenset(output_schema(child, schemas))
            conjuncts = [c for c in _conjuncts(node.condition) if attributes(c) <= columns]
            child = _sink(child, conjuncts, schemas, False)
        except SchemaError:
            pass
        return rebuild(node, child)

    return fold(strip(query), {**_REBUILD, Select: select}, "pushdown")
