"""The provenance relation ≺ of Section 6.

The paper defines provenance as the transitive closure of

    (t.Ā, π_Ā(R)) ≺ (t, R)          (⟨r,s⟩, R×S) ≺ (r, R)
    (t, σ_φ(R))  ≺ (t, R)           (⟨r,s⟩, R×S) ≺ (s, S)
    (t, R∪S)     ≺ (t, R)           (t, R∪S)     ≺ (t, S)

extended with (t, σ̂_φ(Q)) ≺ (t, Q): "(t,Q) ≺ (r,R) is true if there
exists a database in which changing the membership of r in R changes the
membership of t in the result".

:func:`evaluate_with_provenance` evaluates a positive UA[σ̂] query over
*complete* relations and returns, for every result tuple, the set of
base-relation tuples in its provenance.  It is the reference against
which the Lemma 6.4 error accounting of `repro.core` is tested: a result
tuple's error bound must never exceed the sum of the per-decision errors
over its provenance trail.

σ̂ is treated structurally (its output candidates link to every child
tuple sharing one of the conf-group projections); natural join is
provenance of a product-selection-projection composition.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.algebra import schema as _schema
from repro.algebra.builder import Q
from repro.algebra.operators import (
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
    fold,
)
from repro.algebra.relations import Relation

__all__ = ["ProvenanceResult", "SourceTuple", "evaluate_with_provenance"]

SourceTuple = tuple[str, tuple]
"""A base-relation tuple: (relation name, tuple values)."""


@dataclass(frozen=True)
class ProvenanceResult:
    """A relation plus, per tuple, the base tuples it depends on."""

    relation: Relation
    lineage: Mapping[tuple, frozenset[SourceTuple]]

    def sources_of(self, row) -> frozenset[SourceTuple]:
        return self.lineage.get(tuple(row), frozenset())

    def trail_size(self, row) -> int:
        """|provenance| of a tuple — Example 6.5's n, the error multiplier."""
        return len(self.sources_of(row))


def evaluate_with_provenance(
    query: Query | Q, relations: Mapping[str, Relation]
) -> ProvenanceResult:
    """Evaluate positive RA (+ structural σ̂/poss) with tuple lineage."""
    node = query.q if isinstance(query, Q) else query
    return fold(node, _HANDLERS, "evaluate_with_provenance", dict(relations))


def _base(db, node: BaseRel) -> ProvenanceResult:
    rel = db[node.name]
    lineage = {row: frozenset({(node.name, row)}) for row in rel.rows}
    return ProvenanceResult(rel, lineage)


def _literal(db, node: Literal) -> ProvenanceResult:
    return ProvenanceResult(node.relation, {row: frozenset() for row in node.relation.rows})


def _select(db, node: Select, child: ProvenanceResult) -> ProvenanceResult:
    rel = child.relation.select(node.condition)
    lineage = {row: child.lineage[row] for row in rel.rows}
    return ProvenanceResult(rel, lineage)


def _project(db, node: Project, child: ProvenanceResult) -> ProvenanceResult:
    cols = child.relation.columns
    items = list(node.items)
    rel = child.relation.project(items)
    lineage: dict[tuple, set[SourceTuple]] = {row: set() for row in rel.rows}
    for row in child.relation.rows:
        env = dict(zip(cols, row))
        out = tuple(expr.evaluate(env) for expr, _ in items)
        lineage[out] |= child.lineage[row]
    return ProvenanceResult(rel, {k: frozenset(v) for k, v in lineage.items()})


def _rename(db, node: Rename, child: ProvenanceResult) -> ProvenanceResult:
    return ProvenanceResult(child.relation.rename(node.as_dict()), child.lineage)


def _product_or_join(
    db, node, left: ProvenanceResult, right: ProvenanceResult
) -> ProvenanceResult:
    if isinstance(node, Product):
        out_cols = _schema.disjoint_union(left.relation.columns, right.relation.columns)
        shared: tuple[str, ...] = ()
    else:
        out_cols, shared = _schema.natural_join_schema(
            left.relation.columns, right.relation.columns
        )
    lpos = _schema.positions(left.relation.columns, shared)
    rpos = _schema.positions(right.relation.columns, shared)
    rkeep = [i for i, c in enumerate(right.relation.columns) if c not in set(shared)]
    rows = set()
    lineage: dict[tuple, set[SourceTuple]] = {}
    for lrow in left.relation.rows:
        lkey = tuple(lrow[i] for i in lpos)
        for rrow in right.relation.rows:
            if tuple(rrow[i] for i in rpos) != lkey:
                continue
            out = lrow + tuple(rrow[i] for i in rkeep)
            rows.add(out)
            lineage.setdefault(out, set()).update(left.lineage[lrow])
            lineage[out].update(right.lineage[rrow])
    return ProvenanceResult(
        Relation(out_cols, frozenset(rows)),
        {k: frozenset(v) for k, v in lineage.items()},
    )


def _union(db, node: Union, left: ProvenanceResult, right: ProvenanceResult) -> ProvenanceResult:
    rel = left.relation.union(right.relation)
    pos = (
        None
        if right.relation.columns == left.relation.columns
        else _schema.positions(right.relation.columns, left.relation.columns)
    )
    lineage: dict[tuple, set[SourceTuple]] = {row: set() for row in rel.rows}
    for row in left.relation.rows:
        lineage[row] |= left.lineage[row]
    for row in right.relation.rows:
        aligned = row if pos is None else tuple(row[i] for i in pos)
        lineage[aligned] |= right.lineage[row]
    return ProvenanceResult(rel, {k: frozenset(v) for k, v in lineage.items()})


def _poss(db, node: Poss, child: ProvenanceResult) -> ProvenanceResult:
    # On complete relations poss is the identity (structurally a π).
    return child


def _approx_select(db, node: ApproxSelect, child: ProvenanceResult) -> ProvenanceResult:
    # (t, σ̂_φ(Q)) ≺ (t, Q): a candidate depends on every child tuple
    # sharing one of its conf-group projections (those determine the
    # confidences the predicate is evaluated on).
    child_cols = child.relation.columns
    joined: Relation | None = None
    for group in node.groups:
        rel = child.relation.project(list(group))
        joined = rel if joined is None else joined.natural_join(rel)
    assert joined is not None
    lineage: dict[tuple, set[SourceTuple]] = {}
    positions = [_schema.positions(child_cols, g) for g in node.groups]
    for cand in joined.rows:
        env = dict(zip(joined.columns, cand))
        sources: set[SourceTuple] = set()
        for row in child.relation.rows:
            for group, gpos in zip(node.groups, positions):
                if all(row[i] == env[a] for i, a in zip(gpos, group)):
                    sources |= child.lineage[row]
                    break
        lineage[cand] = sources
    return ProvenanceResult(joined, {k: frozenset(v) for k, v in lineage.items()})


def _not_positive(db, node, *children) -> ProvenanceResult:
    raise TypeError(f"provenance is defined for positive UA[σ̂] operators only, got {node!r}")


_HANDLERS = {
    BaseRel: _base,
    Literal: _literal,
    Select: _select,
    Project: _project,
    Rename: _rename,
    Product: _product_or_join,
    Join: _product_or_join,
    Union: _union,
    Difference: _not_positive,
    RepairKey: _not_positive,
    Conf: _not_positive,
    ApproxConf: _not_positive,
    Poss: _poss,
    Cert: _not_positive,
    ApproxSelect: _approx_select,
}
