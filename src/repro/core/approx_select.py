"""Approximate evaluation Q∼ of positive UA[σ̂] queries (Section 6).

:class:`ApproxQueryEvaluator` interprets the operator AST over a
U-relational database like `repro.urel.evaluate.UEvaluator`, but with the
genuinely *approximate* σ̂ — every candidate tuple's selection predicate
is decided by the Figure 3 algorithm over Karp–Luby-estimated
confidences — and with the Lemma 6.4 error accounting of
`repro.core.error_bounds` threaded through every operator.

Two budget modes:

* ``decision_delta`` — each σ̂ decision runs Figure 3 until its own error
  is ≤ δ (standalone use, Theorem 5.8 per tuple);
* ``rounds`` — every decision gets the same outer-loop budget l, the
  regime of the Theorem 6.7 driver, where a σ̂ decision contributes
  k·δ′(max(ε_ψ, ε₀), l) to its tuple's bound (Lemma 6.4(2)).

Structural restrictions from the paper are enforced: repair-key and conf
may appear only *below* any approximate selection (footnote 3: their
inputs must still be reliable); general difference is excluded
(positive UA), −_c on complete reliable/unreliable relations is
supported.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

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
)
from repro.algebra import schema as _schema
from repro.algebra.builder import Q
from repro.algebra.relations import Relation
from repro.confidence.dnf import Dnf
from repro.core.approximator import (
    PredicateApproximator,
    PredicateDecision,
    decide_candidates_shard,
)
from repro.core.error_bounds import AnnotatedRelation, cap
from repro.urel.conditions import TOP
from repro.urel.translate import (
    approx_confidence_relation,
    exact_confidence_relation,
    translate_repair_key,
)
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation, URow
from repro.util.parallel import SERIAL_EXECUTOR, shard_seed
from repro.util.rng import ensure_rng, spawn_rng

__all__ = ["ApproxQueryEvaluator", "DecisionRecord", "UnreliableInputError"]


class UnreliableInputError(RuntimeError):
    """An operation that needs reliable input received unreliable data."""


@dataclass(frozen=True)
class DecisionRecord:
    """Audit record of one σ̂ tuple decision."""

    data: tuple
    p_names: tuple[str, ...]
    decision: PredicateDecision
    provenance_bound: float


class ApproxQueryEvaluator:
    """Evaluate positive UA[σ̂] approximately with per-tuple error bounds."""

    def __init__(
        self,
        db: UDatabase,
        eps0: float,
        rounds: int | None = None,
        decision_delta: float | None = None,
        conf_method: str = "decomposition",
        rng: random.Random | int | None = None,
        epsilon_method: str = "auto",
        copy_db: bool = True,
        backend: str | None = None,
        executor=None,
        bounds_budget: int | None = None,
    ):
        if (rounds is None) == (decision_delta is None):
            raise ValueError("specify exactly one of rounds / decision_delta")
        self.db = db.copy() if copy_db else db
        self.eps0 = eps0
        self.rounds = rounds
        self.decision_delta = decision_delta
        self.conf_method = conf_method
        self.rng = ensure_rng(rng)
        self.epsilon_method = epsilon_method
        self.backend = backend
        self.executor = executor or SERIAL_EXECUTOR
        self.bounds_budget = bounds_budget
        self.decision_log: list[DecisionRecord] = []

    # ------------------------------------------------------------------
    def evaluate(self, query: Query | Q) -> AnnotatedRelation:
        node = query.q if isinstance(query, Q) else query
        return self.eval(node)

    def eval(self, query: Query) -> AnnotatedRelation:
        if isinstance(query, BaseRel):
            return AnnotatedRelation.reliable_from(
                self.db.relation(query.name), self.db.is_complete(query.name)
            )
        if isinstance(query, Literal):
            return AnnotatedRelation.reliable_from(
                URelation.from_complete(query.relation), True
            )
        if isinstance(query, Select):
            return self._select(query, self.eval(query.child))
        if isinstance(query, Project):
            return self._project(query.items, self.eval(query.child))
        if isinstance(query, Rename):
            return self._rename(query.as_dict(), self.eval(query.child))
        if isinstance(query, (Product, Join)):
            return self._binary_join(
                query, self.eval(query.left), self.eval(query.right)
            )
        if isinstance(query, Union):
            return self._union(self.eval(query.left), self.eval(query.right))
        if isinstance(query, Difference):
            return self._difference(self.eval(query.left), self.eval(query.right))
        if isinstance(query, RepairKey):
            return self._repair_key(query, self.eval(query.child))
        if isinstance(query, (Conf, ApproxConf)):
            return self._conf(query, self.eval(query.child))
        if isinstance(query, Poss):
            return self._poss(self.eval(query.child))
        if isinstance(query, Cert):
            return self._cert(self.eval(query.child))
        if isinstance(query, ApproxSelect):
            return self._approx_select(query, self.eval(query.child))
        raise TypeError(f"unknown query node {query!r}")

    # ------------------------------------------------------- plain algebra
    def _select(self, node: Select, child: AnnotatedRelation) -> AnnotatedRelation:
        cols = child.relation.columns

        def keep(row: URow) -> bool:
            return node.condition.evaluate(dict(zip(cols, row[1])))

        present = {r: child.bound_of(r) for r in child.relation.rows if keep(r)}
        phantom = {r: child.phantom_bound_of(r) for r in child.phantom.rows if keep(r)}
        singular = {r for r in child.singular if keep(r)}
        return self._build(cols, present, phantom, singular, child.complete)

    def _project(
        self, items: Sequence, child: AnnotatedRelation
    ) -> AnnotatedRelation:
        cols = child.relation.columns
        out_cols = tuple(name for _, name in items)

        def transform(row: URow) -> URow:
            env = dict(zip(cols, row[1]))
            return (row[0], tuple(expr.evaluate(env) for expr, _ in items))

        return self._regroup(
            out_cols,
            [(transform(r), child.bound_of(r), r in child.singular, True)
             for r in child.relation.rows]
            + [(transform(r), child.phantom_bound_of(r), r in child.singular, False)
               for r in child.phantom.rows],
            child.complete,
        )

    def _rename(self, mapping, child: AnnotatedRelation) -> AnnotatedRelation:
        relation = child.relation.rename(mapping)
        phantom = child.phantom.rename(mapping)
        return AnnotatedRelation(
            relation,
            child.complete,
            dict(child.mu),
            phantom,
            dict(child.phantom_mu),
            set(child.singular),
        )

    def _binary_join(
        self, node, left: AnnotatedRelation, right: AnnotatedRelation
    ) -> AnnotatedRelation:
        is_product = isinstance(node, Product)
        if is_product:
            out_cols = _schema.disjoint_union(
                left.relation.columns, right.relation.columns
            )
            shared: tuple[str, ...] = ()
        else:
            out_cols, shared = _schema.natural_join_schema(
                left.relation.columns, right.relation.columns
            )
        lcols, rcols = left.relation.columns, right.relation.columns
        lpos = _schema.positions(lcols, shared)
        rpos = _schema.positions(rcols, shared)
        rkeep = [i for i, c in enumerate(rcols) if c not in set(shared)]

        def rows_of(ann: AnnotatedRelation):
            for r in ann.relation.rows:
                yield r, ann.bound_of(r), r in ann.singular, True
            for r in ann.phantom.rows:
                yield r, ann.phantom_bound_of(r), r in ann.singular, False

        entries = []
        right_rows = list(rows_of(right))
        for lrow, lmu, lsing, lpres in rows_of(left):
            lkey = tuple(lrow[1][i] for i in lpos)
            for rrow, rmu, rsing, rpres in right_rows:
                if not is_product and tuple(rrow[1][i] for i in rpos) != lkey:
                    continue
                cond = lrow[0].union(rrow[0])
                if cond is None:
                    continue
                values = lrow[1] + tuple(rrow[1][i] for i in rkeep)
                entries.append(
                    ((cond, values), cap(lmu + rmu), lsing or rsing, lpres and rpres)
                )
        return self._regroup(out_cols, entries, left.complete and right.complete)

    def _union(
        self, left: AnnotatedRelation, right: AnnotatedRelation
    ) -> AnnotatedRelation:
        cols = left.relation.columns
        if set(right.relation.columns) != set(cols):
            raise _schema.SchemaError(
                f"incompatible schemas {cols} vs {right.relation.columns}"
            )

        def align_row(row: URow, source: AnnotatedRelation) -> URow:
            src_cols = source.relation.columns
            if src_cols == cols:
                return row
            pos = _schema.positions(src_cols, cols)
            return (row[0], tuple(row[1][i] for i in pos))

        entries = []
        for ann in (left, right):
            for r in ann.relation.rows:
                entries.append(
                    (align_row(r, ann), ann.bound_of(r), r in ann.singular, True)
                )
            for r in ann.phantom.rows:
                entries.append(
                    (align_row(r, ann), ann.phantom_bound_of(r), r in ann.singular, False)
                )
        return self._regroup(cols, entries, left.complete and right.complete)

    def _difference(
        self, left: AnnotatedRelation, right: AnnotatedRelation
    ) -> AnnotatedRelation:
        if not (left.complete and right.complete):
            raise ValueError(
                "general difference is not in positive UA; −_c needs complete inputs"
            )
        cols = left.relation.columns
        pos = (
            None
            if right.relation.columns == cols
            else _schema.positions(right.relation.columns, cols)
        )

        def align_values(values: tuple) -> tuple:
            return values if pos is None else tuple(values[i] for i in pos)

        r_present = {align_values(v): right.bound_of((c, v)) for c, v in right.relation.rows}
        r_phantom = {align_values(v): right.phantom_bound_of((c, v)) for c, v in right.phantom.rows}
        r_singular = {align_values(v) for c, v in right.singular}

        present: dict[URow, float] = {}
        phantom: dict[URow, float] = {}
        singular: set[URow] = set()
        for row in left.relation.rows:
            values = row[1]
            tainted = row in left.singular or values in r_singular
            if values in r_present:
                # t ∈ L and t ∈ R: absent from L − R; wrong if either side is.
                bound = cap(left.bound_of(row) + r_present[values])
                phantom[row] = max(phantom.get(row, 0.0), bound)
            else:
                bound = cap(left.bound_of(row) + r_phantom.get(values, 0.0))
                present[row] = bound
            if tainted:
                singular.add(row)
        for row in left.phantom.rows:
            values = row[1]
            if values in r_present:
                continue  # would be subtracted anyway
            bound = cap(left.phantom_bound_of(row) + r_phantom.get(values, 0.0))
            phantom[row] = max(phantom.get(row, 0.0), bound)
            if row in left.singular or values in r_singular:
                singular.add(row)
        return self._build(cols, present, phantom, singular, True)

    # ------------------------------------------------- uncertainty closers
    def _repair_key(
        self, node: RepairKey, child: AnnotatedRelation
    ) -> AnnotatedRelation:
        if not child.reliable:
            raise UnreliableInputError(
                "repair-key over unreliable data is outside the paper's language "
                "(footnote 3: repair-key never above an approximate selection)"
            )
        if not child.complete:
            from repro.worlds.repair import RepairError

            raise RepairError(
                "repair-key requires a complete relation (c(R)=1, Definition 2.1)"
            )
        result = translate_repair_key(
            child.relation, node.key, node.weight, node.op_id, self.db.w
        )
        return AnnotatedRelation.reliable_from(result, False)

    def _conf(self, node, child: AnnotatedRelation) -> AnnotatedRelation:
        if not child.reliable:
            raise UnreliableInputError(
                "free-standing conf over unreliable data is outside the paper's "
                "simplified language (Section 6); use σ̂ instead"
            )
        if isinstance(node, Conf):
            out = exact_confidence_relation(
                child.relation, self.db.w, node.p_name, self.conf_method
            )
            return AnnotatedRelation.reliable_from(out, True)
        out, _estimates = approx_confidence_relation(
            child.relation,
            self.db.w,
            node.eps,
            node.delta,
            self.rng,
            node.p_name,
            backend=self.backend,
            executor=self.executor,
        )
        # The Karp–Luby value errors are (ε, δ)-bounded per tuple; as
        # membership bounds the output rows are exact (poss is exact).
        return AnnotatedRelation.reliable_from(out, True)

    def _poss(self, child: AnnotatedRelation) -> AnnotatedRelation:
        cols = child.relation.columns
        entries = (
            [((TOP, r[1]), child.bound_of(r), r in child.singular, True)
             for r in child.relation.rows]
            + [((TOP, r[1]), child.phantom_bound_of(r), r in child.singular, False)
               for r in child.phantom.rows]
        )
        return self._regroup(cols, entries, True)

    def _cert(self, child: AnnotatedRelation) -> AnnotatedRelation:
        if not child.reliable:
            raise UnreliableInputError(
                "cert over unreliable data cannot be approximated "
                "(certainty tests are singularities, Example 5.7)"
            )
        conf_rel = exact_confidence_relation(
            child.relation, self.db.w, "__P", self.conf_method
        )
        from repro.algebra.expressions import Attr, Cmp, Const

        ones = conf_rel.select(Cmp("=", Attr("__P"), Const(1)))
        return AnnotatedRelation.reliable_from(
            ones.project(list(child.relation.columns)), True
        )

    # ------------------------------------------------------------------ σ̂
    def _approx_select(
        self, node: ApproxSelect, child: AnnotatedRelation
    ) -> AnnotatedRelation:
        urel = child.relation
        child_cols = urel.columns
        w = self.db.w

        # Per group: project (present rows only) and build each key's DNF.
        group_dnfs: list[dict[tuple, Dnf]] = []
        for group in node.groups:
            projected = urel.project(list(group))
            dnfs = {
                t: Dnf(projected.conditions_of(t), w)
                for t in projected.possible_tuples().rows
            }
            group_dnfs.append(dnfs)

        # Candidate tuples: natural join over present ∪ phantom group keys.
        all_rows = set(urel.rows) | set(child.phantom.rows)
        joined: Relation | None = None
        for group, dnfs in zip(node.groups, group_dnfs):
            gpos = _schema.positions(child_cols, group)
            keys = {tuple(vals[i] for i in gpos) for _cond, vals in all_rows}
            keys |= set(dnfs)
            rel = Relation(tuple(group), frozenset(keys))
            joined = rel if joined is None else joined.natural_join(rel)
        assert joined is not None

        # Provenance: child rows contributing to a candidate (any group
        # projection matches); their μ flows into the candidate's bound.
        group_positions = [
            _schema.positions(child_cols, group) for group in node.groups
        ]

        def provenance_bound(cand_env: dict) -> tuple[float, bool]:
            total, tainted = 0.0, False
            for row, bound, sing, _present in self._iter_all(child):
                for group, gpos in zip(node.groups, group_positions):
                    if all(
                        row[1][i] == cand_env[a] for i, a in zip(gpos, group)
                    ):
                        total += bound
                        tainted = tainted or sing
                        break
            return cap(total), tainted

        out_cols = joined.columns + node.p_names
        present: dict[URow, float] = {}
        phantom: dict[URow, float] = {}
        singular: set[URow] = set()
        empty = Dnf((), w)
        specs: list[tuple[tuple, dict, dict[str, Dnf]]] = []
        for cand in sorted(joined.rows, key=repr):
            cand_env = dict(zip(joined.columns, cand))
            dnfs = {
                p_name: dnf_map.get(tuple(cand_env[a] for a in group), empty)
                for p_name, group, dnf_map in zip(node.p_names, node.groups, group_dnfs)
            }
            specs.append((cand, cand_env, dnfs))
        for (cand, cand_env, _dnfs), decision in zip(
            specs, self._decide_candidates(node, specs)
        ):
            prov_mu, tainted = provenance_bound(cand_env)
            bound = cap(decision.error_bound + prov_mu)
            out_values = cand + tuple(
                decision.estimates[p] for p in node.p_names
            )
            row: URow = (TOP, out_values)
            self.decision_log.append(
                DecisionRecord(cand, node.p_names, decision, prov_mu)
            )
            if decision.value:
                present[row] = bound
            else:
                phantom[row] = bound
            if decision.suspected_singularity or tainted:
                singular.add(row)
        return self._build(out_cols, present, phantom, singular, True)

    def _decide_candidates(
        self, node: ApproxSelect, specs: list[tuple[tuple, dict, dict[str, Dnf]]]
    ) -> list[PredicateDecision]:
        """Figure 3 decisions for the sorted σ̂ candidates, fanned out when wide.

        With enough candidates to cut
        (:meth:`~repro.util.parallel.ShardExecutor.plan_items` — a
        function of the candidate count only), candidates are decided
        concurrently: one pre-spawned stream per candidate, seeded from
        its *position* in the sorted candidate order, and the
        per-candidate Figure 3 runs keep their whole allocation in one
        worker.  Results are bit-identical at every worker count
        because both the plan and the seeds ignore the worker count.

        Narrow selections keep the sequential loop: one stream spawned
        per candidate from the evaluator generator in candidate order,
        with each value's trial allocation sharded *within* the
        candidate.

        With a ``bounds_budget``, each candidate's approximator first
        tries to certify the predicate from dissociation bound
        intervals; certified candidates return a zero-error decision
        without drawing a trial.  Candidate streams are positional
        (wide path) or burned per candidate in order (sequential path),
        so pruning some candidates never shifts the streams of the
        candidates that still sample.
        """
        executor = self.executor
        if len(executor.plan_items(len(specs))) > 1:
            base = self.rng.getrandbits(64)
            return executor.map_items(
                decide_candidates_shard,
                [
                    (dnfs, cand_env, shard_seed(base, i))
                    for i, (_cand, cand_env, dnfs) in enumerate(specs)
                ],
                node.predicate,
                self.eps0,
                self.rounds,
                self.decision_delta,
                self.epsilon_method,
                self.backend,
                self.bounds_budget,
            )
        decisions = []
        for _cand, cand_env, dnfs in specs:
            approximator = PredicateApproximator(
                node.predicate,
                dnfs,
                self.eps0,
                spawn_rng(self.rng),
                constants=cand_env,
                epsilon_method=self.epsilon_method,
                backend=self.backend,
                executor=executor,
                bounds_budget=self.bounds_budget,
            )
            if self.rounds is not None:
                decisions.append(approximator.run_rounds(self.rounds))
            else:
                decisions.append(approximator.decide(self.decision_delta))
        return decisions

    # ------------------------------------------------------------- helpers
    @staticmethod
    def _iter_all(ann: AnnotatedRelation):
        for r in ann.relation.rows:
            yield r, ann.bound_of(r), r in ann.singular, True
        for r in ann.phantom.rows:
            yield r, ann.phantom_bound_of(r), r in ann.singular, False

    def _regroup(
        self,
        out_cols: tuple[str, ...],
        entries: list[tuple[URow, float, bool, bool]],
        complete: bool,
    ) -> AnnotatedRelation:
        """Merge transformed rows: union-bound μ, OR the flags.

        A key that has at least one *present* contributor is present; its
        bound sums contributions from every contributor (present and
        phantom), the Lemma 6.4 union bound over provenance.
        """
        sums: dict[URow, float] = {}
        has_present: dict[URow, bool] = {}
        tainted: dict[URow, bool] = {}
        for row, bound, sing, is_present in entries:
            sums[row] = cap(sums.get(row, 0.0) + bound)
            has_present[row] = has_present.get(row, False) or is_present
            tainted[row] = tainted.get(row, False) or sing
        present = {r: sums[r] for r in sums if has_present[r]}
        phantom = {r: sums[r] for r in sums if not has_present[r]}
        singular = {r for r in sums if tainted[r]}
        return self._build(out_cols, present, phantom, singular, complete)

    @staticmethod
    def _build(
        out_cols: tuple[str, ...],
        present: dict[URow, float],
        phantom: dict[URow, float],
        singular: set[URow],
        complete: bool,
    ) -> AnnotatedRelation:
        relation = URelation(out_cols, frozenset(present))
        phantom_rel = URelation(out_cols, frozenset(phantom))
        return AnnotatedRelation(
            relation,
            complete and relation.is_certain,
            {r: b for r, b in present.items() if b > 0.0},
            phantom_rel,
            dict(phantom),
            singular,
        )
