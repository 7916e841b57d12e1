"""Reference evaluation of UA on nonsuccinct possible-worlds databases.

This engine executes Definition 2.1 literally:

* relational-algebra operations are applied *in each possible world
  independently*;
* ``conf`` aggregates across worlds and adds a complete relation;
* ``repair-key`` combines the database with the repairs of a complete
  relation via ⊗ (Equation 1), expanding the world set;
* ``σ̂`` (Section 6) is evaluated with *exact* confidences, which makes
  this engine the definition of the ideal query ``Q`` that the
  approximate evaluation ``Q∼`` of the U-relational engine is compared
  against (Lemma 6.4 et seq.).

Approximate operators (``ApproxConf``) are intentionally evaluated
exactly here: the worlds engine is ground truth, not an estimator.

Complexity note: this engine realizes Proposition 3.5 — on the
nonsuccinct representation, UA[conf] is cheap (per-world passes plus an
aggregation), while the representation itself may be exponentially large.
"""

from __future__ import annotations

from collections.abc import Sequence

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
from repro.worlds.database import PossibleWorldsDB, Prob, World
from repro.worlds.repair import RepairError, key_repairs

__all__ = ["evaluate", "evaluate_worlds", "evaluate_certain", "EvaluationError"]


class EvaluationError(RuntimeError):
    """Raised when a query cannot be evaluated under paper semantics."""


def evaluate_worlds(
    query: Query,
    db: PossibleWorldsDB,
    max_worlds: int = 1_000_000,
) -> list[tuple[Relation, Prob]]:
    """Evaluate ``query`` and return the result relation of every world.

    The returned list pairs each world's result relation with the world
    probability (worlds are not merged; indistinguishable results may
    repeat, matching the paper's definition of a probabilistic database).
    """
    out_db, name = _Engine(db, max_worlds).eval(query)
    return [(w.relation(name), w.probability) for w in out_db.worlds]


def evaluate(
    query: Query,
    db: PossibleWorldsDB,
    result_name: str = "Result",
    max_worlds: int = 1_000_000,
) -> PossibleWorldsDB:
    """Evaluate ``query`` and store its result as relation ``result_name``.

    Mirrors the paper's session style (``R := ...; S := ...``): the output
    database contains all original relations plus the result, with the
    world set expanded by any repair-key operations inside the query.
    """
    out_db, name = _Engine(db, max_worlds).eval(query)
    worlds = tuple(
        World(
            {
                **{n: r for n, r in w.relations.items() if not n.startswith("__q")},
                result_name: w.relation(name),
            },
            w.probability,
        )
        for w in out_db.worlds
    )
    complete = frozenset(n for n in out_db.complete if not n.startswith("__q"))
    if name in out_db.complete:
        complete |= {result_name}
    return PossibleWorldsDB(worlds, complete)


def evaluate_certain(
    query: Query, db: PossibleWorldsDB, max_worlds: int = 1_000_000
) -> Relation:
    """Evaluate a query whose output is complete and return that one relation.

    Raises :class:`EvaluationError` if the result differs across worlds
    (i.e. the query output is genuinely uncertain).
    """
    results = evaluate_worlds(query, db, max_worlds)
    first = results[0][0]
    for rel, _p in results[1:]:
        if rel != first:
            raise EvaluationError(
                "query result is not certain: differs across possible worlds"
            )
    return first


_PER_WORLD = {
    Product: Relation.product,
    Join: Relation.natural_join,
    Union: Relation.union,
    Difference: Relation.difference,
}


class _Engine:
    """Handler table over :func:`fold`; intermediate results live under __q{i} names.

    The database is threaded through the fold as state: a handler reads
    ``self.db`` — already extended by every operand evaluated before it,
    left to right — and replaces it; its result is the name under which
    the operator's output relation is stored in ``self.db``.
    """

    def __init__(self, db: PossibleWorldsDB, max_worlds: int):
        self.db = db
        self.max_worlds = max_worlds
        self._counter = 0

    def _fresh(self) -> str:
        self._counter += 1
        return f"__q{self._counter}"

    # ------------------------------------------------------------------
    def eval(self, query: Query) -> tuple[PossibleWorldsDB, str]:
        name = fold(query, self.HANDLERS, "worlds.evaluate", self)
        return self.db, name

    def _complete(self, out: str, relation: Relation) -> str:
        self.db = self.db.add_complete_relation(out, relation)
        return out

    def _base(self, query: BaseRel):
        if query.name not in self.db.relation_names:
            raise EvaluationError(f"unknown base relation {query.name!r}")
        return query.name

    def _literal(self, query: Literal):
        return self._complete(self._fresh(), query.relation)

    def _select(self, query: Select, name: str):
        return self._per_world_unary(name, lambda r: r.select(query.condition))

    def _project(self, query: Project, name: str):
        return self._per_world_unary(name, lambda r: r.project(list(query.items)))

    def _rename(self, query: Rename, name: str):
        mapping = query.as_dict()
        return self._per_world_unary(name, lambda r: r.rename(mapping))

    def _poss(self, query: Poss, name: str):
        sub = _as_subdb(self.db, name)
        return self._complete(self._fresh(), sub.possible_tuples(name))

    def _cert(self, query: Cert, name: str):
        sub = _as_subdb(self.db, name)
        return self._complete(self._fresh(), sub.certain_tuples(name))

    # ------------------------------------------------------------------
    def _per_world_unary(self, name: str, op):
        db1 = self.db
        out = self._fresh()
        worlds = tuple(w.with_relation(out, op(w.relation(name))) for w in db1.worlds)
        complete = db1.complete | ({out} if name in db1.complete else set())
        self.db = PossibleWorldsDB(worlds, complete)
        return out

    def _per_world_binary(self, query, lname: str, rname: str):
        db2 = self.db
        out = self._fresh()
        op = _PER_WORLD[type(query)]
        worlds = tuple(
            w.with_relation(out, op(w.relation(lname), w.relation(rname))) for w in db2.worlds
        )
        both_complete = lname in db2.complete and rname in db2.complete
        complete = db2.complete | ({out} if both_complete else set())
        self.db = PossibleWorldsDB(worlds, complete)
        return out

    def _repair_key(self, query: RepairKey, name: str):
        db1 = self.db
        if name not in db1.complete:
            raise RepairError(
                "repair-key requires a complete relation (c(R)=1, Definition 2.1)"
            )
        base = db1.worlds[0].relation(name)
        repairs = key_repairs(base, query.key, query.weight)
        if len(db1.worlds) * len(repairs) > self.max_worlds:
            raise EvaluationError(
                f"repair-key would expand to {len(db1.worlds) * len(repairs)} worlds "
                f"(limit {self.max_worlds})"
            )
        out = self._fresh()
        worlds = []
        for w in db1.worlds:
            for repaired, q in repairs:
                nw = w.with_relation(out, repaired)
                worlds.append(World(nw.relations, w.probability * q))
        # Output is genuinely uncertain: not complete.
        self.db = PossibleWorldsDB(tuple(worlds), db1.complete)
        return out

    def _conf(self, query, name: str):
        sub = _as_subdb(self.db, name)
        confidence = sub.confidence_relation(name, query.p_name)
        return self._complete(self._fresh(), confidence)

    def _approx_select(self, query: ApproxSelect, name: str):
        sub = _as_subdb(self.db, name)
        joined = _exact_conf_join(sub, name, query.groups, query.p_names)
        selected = joined.select(query.predicate)
        return self._complete(self._fresh(), selected)

    HANDLERS = {
        BaseRel: _base,
        Literal: _literal,
        Select: _select,
        Project: _project,
        Rename: _rename,
        Product: _per_world_binary,
        Join: _per_world_binary,
        Union: _per_world_binary,
        Difference: _per_world_binary,
        RepairKey: _repair_key,
        Conf: _conf,
        ApproxConf: _conf,
        Poss: _poss,
        Cert: _cert,
        ApproxSelect: _approx_select,
    }


def _as_subdb(db: PossibleWorldsDB, name: str) -> PossibleWorldsDB:
    """View of ``db`` exposing only relation ``name`` (for conf/poss/cert)."""
    worlds = tuple(World({name: w.relation(name)}, w.probability) for w in db.worlds)
    complete = db.complete & {name}
    return PossibleWorldsDB(worlds, complete)


def _exact_conf_join(
    sub: PossibleWorldsDB,
    name: str,
    groups: Sequence[Sequence[str]],
    p_names: Sequence[str],
) -> Relation:
    """The join of exact conf(π_{Āᵢ}) relations used by σ̂ (Section 6).

    σ̂_{φ(conf[Ā₁],…)}(R) is *defined* as a selection over
    ρ_{P→P₁}(conf(π_{Ā₁}(R))) ⋈ … ⋈ ρ_{P→P_k}(conf(π_{Ā_k}(R))); this
    helper builds that join with exact confidences.
    """
    joined: Relation | None = None
    for group, p_name in zip(groups, p_names):
        projected_worlds = tuple(
            World(
                {name: w.relation(name).project(list(group))},
                w.probability,
            )
            for w in sub.worlds
        )
        proj_db = PossibleWorldsDB(projected_worlds, frozenset())
        conf_rel = proj_db.confidence_relation(name, p_name)
        joined = conf_rel if joined is None else joined.natural_join(conf_rel)
    if joined is None:
        raise EvaluationError("σ̂ needs at least one conf group")
    return joined
