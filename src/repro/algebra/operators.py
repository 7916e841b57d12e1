"""The UA operator AST (Definition 2.1 of the paper, plus Section 6's σ̂).

Queries are immutable trees.  Two engines interpret the same tree:

* `repro.worlds.evaluate` — the nonsuccinct possible-worlds engine, which
  is Definition 2.1 executed verbatim (the semantics);
* `repro.urel.evaluate` — the U-relational engine of Section 3, which is
  the practical implementation (exact or approximate ``conf``).

Operator summary (UA = uncertainty algebra):

====================  =====================================================
``BaseRel(name)``     named input relation of the database
``Literal(rel)``      inline constant relation, e.g. ``{1, 2}`` in Ex. 2.2
``Select``            σ_φ, per world
``Project``           π / ρ with arithmetic, per world
``Rename``            pure attribute renaming ρ, per world
``Product``           ×, per world
``Join``              natural join ⋈ (derived op; per world)
``Union``             ∪, per world
``Difference``        −  (only allowed on complete relations in positive
                      UA, written −_c in the paper)
``RepairKey``         repair-key_{Ā@B}, the uncertainty-introducing op
``Conf``              conf: exact tuple confidence, output complete
``ApproxConf``        conf_{ε,δ}: Karp–Luby approximated confidence
``Poss``              poss(R) = π_sch(R)(conf(R)), possible tuples
``Cert``              cert(R) = π_sch(R)(σ_{P=1}(conf(R))), certain tuples
``ApproxSelect``      σ̂_{φ(conf[Ā₁],…,conf[Āκ])} of Section 6
====================  =====================================================
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import ClassVar, Optional

from repro.algebra import schema as _schema
from repro.algebra.expressions import BoolExpr, Term, attributes
from repro.algebra.relations import (
    ProjectionItem,
    Relation,
    normalize_projection,
)
from repro.algebra.tree import children, fold, walk

# NB: this module defines a query node named ``Union`` (the UA operator);
# do not import ``typing.Union`` here.

__all__ = [
    "Query",
    "BaseRel",
    "Literal",
    "Select",
    "Project",
    "Rename",
    "Product",
    "Join",
    "Union",
    "Difference",
    "RepairKey",
    "Conf",
    "ApproxConf",
    "Poss",
    "Cert",
    "ApproxSelect",
    "output_schema",
    "NODE_TYPES",
    "children",
    "walk",
    "fold",
    "P_COLUMN",
]

P_COLUMN = "P"
"""Default name of the probability column added by ``conf`` (paper: P)."""

_repair_key_ids = itertools.count(1)


class Query:
    """Base class for UA operator nodes.

    ``child_fields`` names the fields that hold sub-queries, in
    evaluation order (operators inherit it from ``_UnaryOp`` /
    ``_BinaryOp``); the traversal functions of `repro.algebra.tree`
    (re-exported here) read nothing else about a node's shape.
    """

    __slots__ = ()
    kind: ClassVar[str] = "query"
    child_fields: ClassVar[tuple[str, ...]] = ()


class _UnaryOp(Query):
    __slots__ = ()
    child_fields = ("child",)


class _BinaryOp(Query):
    __slots__ = ()
    child_fields = ("left", "right")


@dataclass(frozen=True, slots=True)
class BaseRel(Query):
    """A named relation of the input database."""

    name: str


@dataclass(frozen=True, slots=True)
class Literal(Query):
    """An inline constant (complete) relation."""

    relation: Relation


@dataclass(frozen=True, slots=True)
class Select(_UnaryOp):
    """σ_condition, applied in each possible world independently.

    ``pushed`` marks a copy the selection-pushdown pass placed
    (`repro.algebra.pushdown`); queries as written never carry one.
    """

    child: Query
    condition: BoolExpr
    pushed: bool = field(default=False, repr=False)


@dataclass(frozen=True)
class Project(_UnaryOp):
    """Generalized projection π (also covers arithmetic ρ of the paper)."""

    child: Query
    items: tuple[tuple[Term, str], ...]

    def __init__(self, child: Query, items: Sequence[ProjectionItem | str]):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "items", tuple(normalize_projection(items)))


@dataclass(frozen=True, slots=True)
class Rename(_UnaryOp):
    """Pure attribute renaming ρ_{A→B}."""

    child: Query
    mapping: tuple[tuple[str, str], ...]

    def __init__(self, child: Query, mapping: Mapping[str, str]):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "mapping", tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, str]:
        return dict(self.mapping)


@dataclass(frozen=True, slots=True)
class Product(_BinaryOp):
    """Cartesian product × (schemas must be disjoint)."""

    left: Query
    right: Query


@dataclass(frozen=True, slots=True)
class Join(_BinaryOp):
    """Natural join ⋈ on shared attribute names."""

    left: Query
    right: Query


@dataclass(frozen=True, slots=True)
class Union(_BinaryOp):
    """Set union ∪ (same schema)."""

    left: Query
    right: Query


@dataclass(frozen=True, slots=True)
class Difference(_BinaryOp):
    """Set difference −.

    In positive UA only the complete-relation variant −_c is permitted;
    the engines enforce this (the possible-worlds engine can evaluate the
    general case, which is used to check the restriction's necessity).
    """

    left: Query
    right: Query


@dataclass(frozen=True, slots=True)
class RepairKey(_UnaryOp):
    """repair-key_{key@weight}: all maximal key-repairs, weighted by ``weight``.

    The uncertainty-introducing operation of Definition 2.1.  ``op_id``
    makes the random variables introduced by distinct occurrences of
    repair-key distinct, which the paper assumes implicitly (each
    application introduces *new* variables into the W table).
    """

    child: Query
    key: tuple[str, ...]
    weight: str
    op_id: int = field(default_factory=lambda: next(_repair_key_ids))

    def __init__(self, child: Query, key: Sequence[str], weight: str, op_id: int | None = None):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "key", tuple(key))
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "op_id", next(_repair_key_ids) if op_id is None else op_id)


@dataclass(frozen=True, slots=True)
class Conf(_UnaryOp):
    """conf: exact tuple-confidence computation; output is complete by c."""

    child: Query
    p_name: str = P_COLUMN


@dataclass(frozen=True, slots=True)
class ApproxConf(_UnaryOp):
    """conf_{ε,δ}: Karp–Luby approximate confidence (Corollary 4.3)."""

    child: Query
    eps: float
    delta: float
    p_name: str = P_COLUMN


@dataclass(frozen=True, slots=True)
class Poss(_UnaryOp):
    """poss(R): tuples possible in at least one world (complete output)."""

    child: Query


@dataclass(frozen=True, slots=True)
class Cert(_UnaryOp):
    """cert(R): tuples certain in all worlds (complete output)."""

    child: Query


@dataclass(frozen=True)
class ApproxSelect(_UnaryOp):
    """σ̂_{φ(conf[Ā₁],…,conf[Āκ])}(R) — approximate selection (Section 6).

    ``groups`` lists the attribute sets Āᵢ; conceptually the operator

    1. computes ``conf(π_{Āᵢ}(R))`` for each i, renaming P to ``p_names[i]``,
    2. natural-joins the k confidence relations,
    3. selects on ``predicate`` over the p-columns (and data columns).

    The output is complete but *unreliable* when confidences are
    approximated; engines record per-tuple decision error bounds.
    """

    child: Query
    predicate: BoolExpr
    groups: tuple[tuple[str, ...], ...]
    p_names: tuple[str, ...]

    def __init__(
        self,
        child: Query,
        predicate: BoolExpr,
        groups: Sequence[Sequence[str]],
        p_names: Optional[Sequence[str]] = None,
    ):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "groups", tuple(tuple(g) for g in groups))
        if p_names is None:
            p_names = tuple(f"P{i + 1}" for i in range(len(self.groups)))
        object.__setattr__(self, "p_names", tuple(p_names))
        if len(self.p_names) != len(self.groups):
            raise ValueError("need exactly one P-name per conf group")
        if len(set(self.p_names)) != len(self.p_names):
            raise ValueError(f"duplicate P-names {self.p_names}")
        extra = attributes(predicate) - set(self.p_names) - {a for g in self.groups for a in g}
        if extra:
            raise ValueError(
                f"predicate mentions attributes {sorted(extra)} that are neither "
                f"P-names nor grouped data attributes"
            )

    def output_columns(self) -> tuple[str, ...]:
        """(Ā₁, P₁, Ā₂∖Ā₁, P₂, …): the schema of the join in step 2."""
        joined: tuple[str, ...] = ()
        for group, p_name in zip(self.groups, self.p_names):
            joined, _shared = _schema.natural_join_schema(joined, group + (p_name,))
        return joined


def output_schema(query: Query, base_schemas: Mapping[str, Sequence[str]]) -> tuple[str, ...]:
    """Infer the output schema of ``query`` given base relation schemas.

    Raises :class:`repro.algebra.schema.SchemaError` for ill-typed queries;
    engines call this up-front so errors surface before evaluation.
    """
    return fold(query, _SCHEMA_HANDLERS, "output_schema", base_schemas)


def _base_schema(base_schemas, node: BaseRel):
    try:
        return _schema.check_schema(tuple(base_schemas[node.name]))
    except KeyError as exc:
        raise _schema.SchemaError(f"unknown base relation {node.name!r}") from exc


def _select_schema(base_schemas, node: Select, cols):
    missing = attributes(node.condition) - set(cols)
    if missing:
        raise _schema.SchemaError(f"selection references missing attributes {sorted(missing)}")
    return cols


def _project_schema(base_schemas, node: Project, cols):
    for expr, _name in node.items:
        missing = attributes(expr) - set(cols)
        if missing:
            raise _schema.SchemaError(
                f"projection references missing attributes {sorted(missing)}"
            )
    return _schema.check_schema(tuple(name for _, name in node.items))


def _rename_schema(base_schemas, node: Rename, cols):
    mapping = node.as_dict()
    missing = set(mapping) - set(cols)
    if missing:
        raise _schema.SchemaError(f"rename of missing attributes {sorted(missing)}")
    return _schema.check_schema(tuple(mapping.get(c, c) for c in cols))


def _setop_schema(base_schemas, node, lcols, rcols):
    if set(lcols) != set(rcols):
        raise _schema.SchemaError(f"incompatible schemas {lcols} vs {rcols}")
    return lcols


def _repair_key_schema(base_schemas, node: RepairKey, cols):
    _schema.positions(cols, node.key + (node.weight,))
    return cols


def _conf_schema(base_schemas, node, cols):
    if node.p_name in cols:
        raise _schema.SchemaError(f"conf output column {node.p_name!r} already in schema {cols}")
    return cols + (node.p_name,)


def _approx_select_schema(base_schemas, node: ApproxSelect, cols):
    for group in node.groups:
        _schema.positions(cols, group)
    for p in node.p_names:
        if p in cols:
            raise _schema.SchemaError(f"P-name {p!r} collides with schema {cols}")
    return node.output_columns()


_SCHEMA_HANDLERS = {
    BaseRel: _base_schema,
    Literal: lambda base_schemas, node: node.relation.columns,
    Select: _select_schema,
    Project: _project_schema,
    Rename: _rename_schema,
    Product: lambda base_schemas, node, lcols, rcols: _schema.disjoint_union(lcols, rcols),
    Join: lambda base_schemas, node, lcols, rcols: _schema.natural_join_schema(lcols, rcols)[0],
    Union: _setop_schema,
    Difference: _setop_schema,
    RepairKey: _repair_key_schema,
    Conf: _conf_schema,
    ApproxConf: _conf_schema,
    Poss: lambda base_schemas, node, cols: cols,
    Cert: lambda base_schemas, node, cols: cols,
    ApproxSelect: _approx_select_schema,
}

NODE_TYPES = tuple(_SCHEMA_HANDLERS)
"""The operator catalogue: every class a handler table must cover."""
