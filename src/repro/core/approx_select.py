"""Approximate evaluation Q∼ of positive UA[σ̂] queries (Section 6).

:class:`ApproxQueryEvaluator` is a
:class:`~repro.urel.evaluate.UEvaluator` that adds what Section 6 adds:
the genuinely *approximate* σ̂ — every candidate tuple's selection
predicate is decided by the Figure 3 algorithm over Karp–Luby-estimated
confidences — and, for the operators *above* a σ̂, the Lemma 6.4 error
accounting of `repro.core.error_bounds`.  σ̂-free subtrees run the
inherited operators unchanged.

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
from dataclasses import dataclass

from repro.algebra.operators import (
    ApproxConf,
    ApproxSelect,
    Cert,
    Conf,
    Difference,
    Join,
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
from repro.algebra.pushdown import PUSH_ERRORS
from repro.confidence.dissociation import BoundInterval
from repro.confidence.dnf import Dnf
from repro.core.approximator import (
    PredicateApproximator,
    PredicateDecision,
    decide_candidates_shard,
)
from repro.core.error_bounds import AnnotatedRelation, cap
from repro.urel.conditions import TOP
from repro.urel.evaluate import UEvaluator
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation, URow
from repro.util.parallel import shard_seed
from repro.util.rng import spawn_rng

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


_CONF_UNRELIABLE = (
    "free-standing conf over unreliable data is outside the paper's "
    "simplified language (Section 6); use σ̂ instead"
)
_UNRELIABLE = {
    RepairKey: (
        "repair-key over unreliable data is outside the paper's language "
        "(footnote 3: repair-key never above an approximate selection)"
    ),
    Conf: _CONF_UNRELIABLE,
    ApproxConf: _CONF_UNRELIABLE,
    Cert: (
        "cert over unreliable data cannot be approximated "
        "(certainty tests are singularities, Example 5.7)"
    ),
}


class ApproxQueryEvaluator(UEvaluator):
    """Evaluate positive UA[σ̂] approximately with per-tuple error bounds.

    Results flowing up the tree are the inherited ``(representation,
    complete)`` pairs until a σ̂ is crossed, and
    :class:`AnnotatedRelation` objects from there on.
    """

    def __init__(
        self,
        db: UDatabase,
        eps0: float,
        rounds: int | None = None,
        decision_delta: float | None = None,
        rng: random.Random | int | None = None,
        epsilon_method: str = "auto",
        copy_db: bool = True,
        backend: str | None = None,
        executor=None,
        bounds_budget: int | None = None,
        enclosures=None,
    ):
        if (rounds is None) == (decision_delta is None):
            raise ValueError("specify exactly one of rounds / decision_delta")
        super().__init__(
            db,
            rng=rng,
            copy_db=copy_db,
            backend=backend,
            executor=executor,
            enclosures=enclosures,
        )
        self.eps0 = eps0
        self.rounds = rounds
        self.decision_delta = decision_delta
        self.epsilon_method = epsilon_method
        self.bounds_budget = bounds_budget
        self.decision_log: list[DecisionRecord] = []

    # ------------------------------------------------------------------
    def evaluate(self, query: Query | Q) -> AnnotatedRelation:
        return self.eval(query.q if isinstance(query, Q) else query)

    def eval(self, query: Query) -> AnnotatedRelation:
        return self._annotated(self._eval_rep(self._pushed(query)))

    def _annotated(self, result) -> AnnotatedRelation:
        """``result`` as an :class:`AnnotatedRelation` (reliable if plain)."""
        if isinstance(result, AnnotatedRelation):
            return result
        rep, complete = result
        return AnnotatedRelation(self._materialize(rep), complete)

    def _above_sigma(self, node: Query, *operands):
        """Every operator but σ̂: annotated only once a σ̂ has been crossed."""
        if not any(isinstance(operand, AnnotatedRelation) for operand in operands):
            return self._inherited(node, *operands)
        return self.ANNOTATED[type(node)](self, node, *map(self._annotated, operands))

    def _inherited(self, node: Query, *operands):
        """The plain evaluator's handler, on operands this one has folded."""
        handler = UEvaluator.HANDLERS[type(node)]
        if getattr(handler, "lazy", False):
            operands = tuple((lambda value=operand: value) for operand in operands)
        return handler(self, node, *operands)

    def _reliable_only(self, node: Query, child: AnnotatedRelation):
        """repair-key / conf / aconf / cert: inherited, on reliable input only."""
        if not child.reliable:
            raise UnreliableInputError(_UNRELIABLE[type(node)])
        return self._inherited(node, (child.relation, child.complete))

    # --------------------------------------------- annotated algebra (above σ̂)
    def _select(self, node: Select, child: AnnotatedRelation) -> AnnotatedRelation:
        cols = child.relation.columns
        try:
            kept = [
                entry
                for entry in self._iter_all(child)
                if node.condition.evaluate(dict(zip(cols, entry[0][1])))
            ]
        except PUSH_ERRORS:
            if not node.pushed:
                raise
            return child  # a copy that cannot filter leaves its operand whole
        return self._regroup(cols, kept, child.complete)

    def _project(self, node: Project, child: AnnotatedRelation) -> AnnotatedRelation:
        items = node.items
        cols = child.relation.columns
        out_cols = tuple(name for _, name in items)

        def transform(row: URow) -> URow:
            env = dict(zip(cols, row[1]))
            return (row[0], tuple(expr.evaluate(env) for expr, _ in items))

        return self._regroup(
            out_cols,
            [(transform(r), mu, sing, pres) for r, mu, sing, pres in self._iter_all(child)],
            child.complete,
        )

    def _rename(self, node: Rename, child: AnnotatedRelation) -> AnnotatedRelation:
        mapping = node.as_dict()
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

        entries = []
        right_rows = list(self._iter_all(right))
        for lrow, lmu, lsing, lpres in self._iter_all(left):
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
        self, node: Union, left: AnnotatedRelation, right: AnnotatedRelation
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
            for r, mu, sing, pres in self._iter_all(ann):
                entries.append((align_row(r, ann), mu, sing, pres))
        return self._regroup(cols, entries, left.complete and right.complete)

    def _difference(
        self, node: Difference, left: AnnotatedRelation, right: AnnotatedRelation
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

    def _poss(self, node: Poss, child: AnnotatedRelation) -> AnnotatedRelation:
        cols = child.relation.columns
        entries = [((TOP, r[1]), mu, sing, pres) for r, mu, sing, pres in self._iter_all(child)]
        return self._regroup(cols, entries, True)

    # ------------------------------------------------------------------ σ̂
    def _approx_select(self, node: ApproxSelect, child) -> AnnotatedRelation:
        child = self._annotated(child)
        # Candidate tuples: natural join over present ∪ phantom group keys.
        joined, group_dnfs = self.sigma_candidates(node, child.relation, child.phantom.rows)

        provenance_bound = self._provenance_bounds(node, child)
        out_cols = node.output_columns()
        empty = Dnf((), self.db.w)
        specs: list[tuple[tuple, dict, dict[str, Dnf]]] = []
        for cand in sorted(joined.rows, key=repr):
            cand_env = dict(zip(joined.columns, cand))
            dnfs = {
                p_name: dnf_map.get(tuple(cand_env[a] for a in group), empty)
                for p_name, group, dnf_map in zip(node.p_names, node.groups, group_dnfs)
            }
            specs.append((cand, cand_env, dnfs))
        intervals = self._candidate_intervals([dnfs for _cand, _env, dnfs in specs])
        decisions = self._decide_candidates(node, specs, intervals)
        entries = []
        for (cand, cand_env, _dnfs), decision in zip(specs, decisions):
            prov_mu, tainted = provenance_bound(cand_env)
            out_env = {**cand_env, **decision.estimates}
            row: URow = (TOP, tuple(out_env[c] for c in out_cols))
            self.decision_log.append(DecisionRecord(cand, node.p_names, decision, prov_mu))
            singular = decision.suspected_singularity or tainted
            entries.append((row, cap(decision.error_bound + prov_mu), singular, decision.value))
        return self._regroup(out_cols, entries, True)

    def _candidate_intervals(
        self, candidate_dnfs: list[dict[str, Dnf]]
    ) -> list[dict[str, BoundInterval] | None]:
        """Per candidate, the bound enclosure of each value (``None``: pruning off).

        The enclosure seam is asked once, here in the parent, for the
        selection's distinct DNFs, and each candidate is handed its
        intervals: no candidate — and, behind the seam, no doubling of
        the driver and no later run of a session — solves one again.
        """
        if not self.bounds_budget:
            return [None] * len(candidate_dnfs)
        distinct = {id(dnf): dnf for dnfs in candidate_dnfs for dnf in dnfs.values()}
        solved = self.enclosures(list(distinct.values()), self.bounds_budget)
        enclosure = dict(zip(distinct, solved))
        return [
            {name: enclosure[id(dnf)] for name, dnf in dnfs.items()} for dnfs in candidate_dnfs
        ]

    def _provenance_bounds(self, node: ApproxSelect, child: AnnotatedRelation):
        """Candidate environment → (Σμ, tainted) over its provenance in ``child``.

        A child row contributes to a candidate when any group projection
        matches (once, however many match); its μ flows into the
        candidate's bound.  Reliable input carries no μ and no taint, so
        every candidate gets ``(0.0, False)`` unscanned; otherwise the
        rows are indexed by group key once per σ̂ and each candidate sums
        its contributors in :meth:`_iter_all` order — the order the
        float sum has always been taken in.
        """
        if child.reliable:
            return lambda cand_env: (0.0, False)
        contributions = []
        by_key: list[dict[tuple, list[int]]] = [{} for _ in node.groups]
        group_positions = [
            _schema.positions(child.relation.columns, group) for group in node.groups
        ]
        for i, (row, bound, sing, _present) in enumerate(self._iter_all(child)):
            contributions.append((bound, sing))
            for index, gpos in zip(by_key, group_positions):
                index.setdefault(tuple(row[1][p] for p in gpos), []).append(i)

        def provenance_bound(cand_env: dict) -> tuple[float, bool]:
            contributors: set[int] = set()
            for group, index in zip(node.groups, by_key):
                contributors.update(index.get(tuple(cand_env[a] for a in group), ()))
            total, tainted = 0.0, False
            for i in sorted(contributors):
                bound, sing = contributions[i]
                total += bound
                tainted = tainted or sing
            return cap(total), tainted

        return provenance_bound

    def _decide_candidates(
        self,
        node: ApproxSelect,
        specs: list[tuple[tuple, dict, dict[str, Dnf]]],
        intervals: list[dict[str, BoundInterval] | None],
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
        tries to certify the predicate from its dissociation bound
        ``intervals``; certified candidates return a zero-error decision
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
                    (dnfs, cand_env, shard_seed(base, i), boxes)
                    for i, ((_cand, cand_env, dnfs), boxes) in enumerate(zip(specs, intervals))
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
        for (_cand, cand_env, dnfs), boxes in zip(specs, intervals):
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
                intervals=boxes,
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

    ANNOTATED = {
        Select: _select,
        Project: _project,
        Rename: _rename,
        Product: _binary_join,
        Join: _binary_join,
        Union: _union,
        Difference: _difference,
        Poss: _poss,
        RepairKey: _reliable_only,
        Conf: _reliable_only,
        ApproxConf: _reliable_only,
        Cert: _reliable_only,
    }
    """Section 6's versions of the operators, run only above a σ̂."""

    HANDLERS = {**dict.fromkeys(UEvaluator.HANDLERS, _above_sigma), ApproxSelect: _approx_select}
