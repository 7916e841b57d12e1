"""UA evaluation over U-relational databases (Section 3 + Corollary 4.3).

The evaluator interprets the same operator AST as the possible-worlds
engine, but on the succinct representation:

* positive relational algebra, ``poss`` and ``repair-key`` run as the
  parsimonious translations (Proposition 3.3 — no look at W except to
  extend it with fresh repair-key variables);
* the confidence-closing operators share one seam — :meth:`lineage`
  (poss(R) and each tuple's disjunction F) → :meth:`confidences` (a
  strategy object weighs the Fs; :meth:`enclosures` is its sibling for
  the consumers that only need a guaranteed box around each weight) →
  ``translate.confidence_relation`` — with a plan-level step 0 in
  front, :meth:`plan_confidences`: where the strategy object allows it
  (``auto``) and the plan is a safe one over tuple-independent
  relations, every tuple's confidence is arithmetic over a probability
  column (:mod:`repro.confidence.extensional`) and no F is built:
  ``conf`` under the evaluator's strategy (default: the exact #P
  subprocedure behind Theorem 3.4), ``cert`` and ``σ̂`` under its
  :attr:`exact_strategy`, ``conf_{ε,δ}`` under Karp–Luby at the node's
  own (ε, δ) (Corollary 4.3);
* ``σ̂`` is evaluated here with *exact* confidences; the genuinely
  approximate σ̂ with per-tuple error accounting is
  `repro.core.approx_select.ApproxQueryEvaluator`, a subclass that
  replaces the σ̂ handler and the operators above a σ̂.

Before the fold, :meth:`eval` runs one rewrite: selection pushdown
(:mod:`repro.algebra.pushdown`).  A selection filters data values and
leaves conditions alone, so a copy of each conjunct goes on the lowest
operand of a join, product or union that covers it — never across
``conf``, ``aconf``, ``cert``, σ̂, ``repair-key``, ``poss`` or
``difference`` — and a merge pairs only the rows the answer can keep;
the ``select`` as written still runs, and a copy whose predicate raises
on its operand is skipped.  The rewritten tree stays in here: the
``conf`` handler hands step 0 the plan as written.

The purely-relational subtrees run
``select``/``project``/``rename``/``union``/``product``/``natural_join``
on the columnar integer-coded representation
(:mod:`repro.urel.columnar`), keeping intermediates columnar across the
subtree and materializing a scalar :class:`URelation` only at
confidence / repair-key / possibility boundaries.  Relations outside
the columnar envelope (fewer than ``ColumnarContext.min_rows`` rows, or
more than ``max_vars`` condition variables) run the indexed scalar
operators of :class:`URelation` instead; both paths produce
setwise-identical relations.  The
envelope is asked about what the operators actually meet — after
pushdown, a join's operand is the filtered relation.
Tuple-independent inputs, one variable per row, are the shape that
exceeds ``max_vars`` — and the shape step 0 exists for: the
*confidences* of a safe plan over them are read off the plan, on one
pure-Python path, and this intensional result is
never built: ``db.query`` and the ``conf`` handler (a
:func:`~repro.algebra.tree.lazy` one) ask step 0 before evaluating.

For the paper's session style (``R := query``, one growing W table
threaded through consecutive assignments) use ``repro.connect(db)``.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING
from typing import Union as _Union

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
    output_schema,
)
from repro.algebra import schema as _schema
from repro.algebra.expressions import Attr, Cmp, Const
from repro.algebra.pushdown import PUSH_ERRORS, push, strip
from repro.algebra.relations import Relation
from repro.algebra.tree import lazy
from repro.urel.columnar import ColumnarContext, ColumnarURelation
from repro.urel.translate import confidence_relation, translate_repair_key
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.util.rng import ensure_rng
from repro.util.scope import current_scope
from repro.worlds.repair import RepairError

if TYPE_CHECKING:
    from repro.confidence import BoundInterval, ConfidenceReport, ConfidenceStrategy, Dnf

__all__ = ["UEvaluator", "UResult"]


def _confidence():
    """The :mod:`repro.confidence` package, imported on first use.

    ``repro.confidence`` imports ``repro.urel.conditions`` and with it
    this module, so the import cannot sit at the top: whenever
    ``repro.confidence`` is imported first it would find itself half
    initialised.
    """
    import repro.confidence

    return repro.confidence


_Rep = _Union[URelation, ColumnarURelation]
"""An intermediate result: scalar, or columnar inside the envelope."""


@dataclass
class UResult:
    """Evaluation output: the result U-relation and its completeness flag."""

    relation: URelation
    complete: bool


class UEvaluator:
    """Evaluator for UA queries on a U-relational database.

    A handler table over :func:`repro.algebra.operators.fold`: one
    method per operator, receiving the node and its operands'
    ``(representation, complete)`` results (``conf``: thunks of them).

    ``strategy`` is the :class:`~repro.confidence.strategies.ConfidenceStrategy`
    object ``conf`` runs (``None``: exact decomposition, the Theorem 3.4
    subprocedure); ``rng`` seeds all approximate operators.  The
    strategies' batches, ``aconf``'s among them, fan out on the run
    scope's executor (:mod:`repro.util.scope`), bit-identically at every
    worker count and shard plan, and :meth:`enclosures` asks the run
    scope's memo.  When ``copy_db`` is
    true the input database (including W) is left untouched and
    repair-key variables go into a private copy.
    """

    def __init__(
        self,
        db: UDatabase,
        strategy: ConfidenceStrategy | None = None,
        rng: random.Random | int | None = None,
        copy_db: bool = True,
    ):
        self.db = db.copy() if copy_db else db
        self._strategy = _confidence().ExactDecomposition() if strategy is None else strategy
        self.rng = ensure_rng(rng)
        self._pool = self.db.condition_pool
        # One coding context per database family (shared through
        # UDatabase.copy, like the pool), so per-relation encoding memos
        # hit across session and scratch evaluators alike.  Attached
        # under the database lock: evaluators on different threads must
        # agree on one context.
        self._ctx = self.db.ensure_columnar_context(
            lambda: ColumnarContext(self.db.w, self._pool)
        )

    # ------------------------------------------------------------------
    def evaluate(self, query: Query) -> UResult:
        relation, complete = self.eval(query)
        return UResult(relation, complete)

    def eval(self, query: Query) -> tuple[URelation, bool]:
        rep, complete = self.eval_rep(query)
        return self._materialize(rep), complete

    def eval_rep(self, query: Query) -> tuple[_Rep, bool]:
        """``query``'s result as the operators leave it — columnar inside
        the envelope, not decoded — and its completeness.  :meth:`lineage`
        reads either representation; ``to_urelation()`` decodes."""
        return self._eval_rep(self._pushed(query))

    def _pushed(self, query: Query) -> Query:
        """``query`` as it runs: selection copies pushed toward the scans.

        The rewrite (:func:`repro.algebra.pushdown.push`) stays inside
        the evaluator — whatever hands a sub-plan onward strips it.  A
        plan the pass cannot read runs as written, so the handler table,
        not the pass, names an operator nobody knows.
        """
        try:
            return push(query, self.db.schema_of)
        except TypeError:
            return query

    # -- representation plumbing ---------------------------------------
    def _materialize(self, rep: _Rep) -> URelation:
        """A scalar :class:`URelation` for ``rep`` (decode if columnar)."""
        return rep if isinstance(rep, URelation) else rep.to_urelation()

    def _lift(self, rep: _Rep) -> _Rep:
        """The operator-engine form of ``rep``: columnar where it pays.

        Scalar relations outside the columnar envelope (too small to
        amortize array setup, or too many condition variables for the
        dense matrix — see :meth:`ColumnarContext.worth_encoding`) are
        returned unchanged and run the indexed scalar operators instead.
        """
        if isinstance(rep, URelation) and self._ctx.worth_encoding(rep):
            encoded = self._ctx.encode(rep)
            if encoded.tainted:
                # Encoding this relation collided cross-type with an
                # existing code: its columnar form would decode to the
                # wrong arithmetic type.  This relation stays scalar;
                # unaffected relations keep the columnar path.
                return rep
            return encoded
        return rep

    def _lift_pair(self, left: _Rep, right: _Rep):
        """Both operands columnar, or ``None`` to run the scalar operator.

        A pair is lifted when both sides are (or are worth making)
        columnar; if one side is already columnar, the other follows it
        unless its variable set would blow out the dense matrix.
        """
        left_c = isinstance(left, ColumnarURelation)
        right_c = isinstance(right, ColumnarURelation)
        if left_c and right_c:
            if left.tainted or right.tainted or not self._pair_width_ok(left, right):
                return None
            return left, right
        if left_c or right_c:
            columnar, other = (left, right) if left_c else (right, left)
            if columnar.tainted or other.variables_exceed(self._ctx.max_vars):
                return None
            encoded = self._ctx.encode(other)
            if encoded.tainted or not self._pair_width_ok(columnar, encoded):
                return None
            return (left, encoded) if left_c else (encoded, right)
        if self._ctx.worth_encoding(left) and self._ctx.worth_encoding(right):
            el, er = self._ctx.encode(left), self._ctx.encode(right)
            if el.tainted or er.tainted or not self._pair_width_ok(el, er):
                return None
            return el, er
        return None

    def _pair_width_ok(self, left: ColumnarURelation, right: ColumnarURelation) -> bool:
        """Whether the merged condition layout stays inside the envelope.

        Columnar-born intermediates are never re-checked by
        ``worth_encoding``, so a chain of joins over tuple-independent-ish
        inputs could otherwise accumulate a dense condition matrix far
        beyond ``max_vars`` — exactly the shape the envelope exists to
        keep off the columnar path.
        """
        union = set(left.cond_vars) | set(right.cond_vars)
        return len(union) <= self._ctx.max_vars

    # -- evaluation ----------------------------------------------------
    def _eval_rep(self, query: Query) -> tuple[_Rep, bool]:
        return fold(query, self.HANDLERS, type(self).__name__, self)

    def _base(self, node: BaseRel):
        return self.db.relation(node.name), self.db.is_complete(node.name)

    def _literal(self, node: Literal):
        return URelation.from_complete(node.relation), True

    def _select(self, node: Select, child):
        rep, complete = child
        rep = self._lift(rep)
        try:
            return rep.select(node.condition), complete
        except PUSH_ERRORS:
            if not node.pushed:
                raise
            # A copy that cannot filter its operand leaves it whole: the
            # selection as written raises, or not, on the rows it sees.
            return rep, complete

    def _project(self, node: Project, child):
        rep, complete = child
        return self._lift(rep).project(list(node.items)), complete

    def _rename(self, node: Rename, child):
        rep, complete = child
        return self._lift(rep).rename(node.as_dict()), complete

    def _operands(self, left, right):
        """``(columnar?, left, right, complete)`` for a binary operator."""
        (lrep, lc), (rrep, rc) = left, right
        pair = self._lift_pair(lrep, rrep)
        if pair is not None:
            return True, pair[0], pair[1], lc and rc
        return False, self._materialize(lrep), self._materialize(rrep), lc and rc

    def _product(self, node: Product, left, right):
        columnar, left, right, complete = self._operands(left, right)
        if columnar:
            return left.product(right), complete
        return left.product(right, pool=self._pool), complete

    def _join(self, node: Join, left, right):
        columnar, left, right, complete = self._operands(left, right)
        if columnar:
            return left.natural_join(right), complete
        return left.natural_join(right, pool=self._pool), complete

    def _union(self, node: Union, left, right):
        _columnar, left, right, complete = self._operands(left, right)
        return left.union(right), complete

    def _difference(self, node: Difference, left, right):
        if not (left[1] and right[1]):
            raise ValueError(
                "general difference is not in positive UA; only −_c on "
                "complete relations is supported by the U-relational engine"
            )
        return self._materialize(left[0]).difference_complete(self._materialize(right[0])), True

    def _repair_key(self, node: RepairKey, child):
        rep, complete = child
        if not complete:
            raise RepairError("repair-key requires a complete relation (c(R)=1, Definition 2.1)")
        result = translate_repair_key(
            self._materialize(rep), node.key, node.weight, node.op_id, self.db.w
        )
        return result, False

    @lazy
    def _conf(self, node: Conf, child):
        # Step 0 first: a child it answers is never evaluated.
        lifted = self.plan_confidences(strip(node.child))
        if lifted is None:
            return self.conf(self._materialize(child()[0]), node.p_name), True
        columns = output_schema(node.child, {n: r.columns for n, r in self.db.relations.items()})
        values = [report.value for report in lifted.values()]
        return confidence_relation(columns, node.p_name, list(lifted), values), True

    def _approx_conf(self, node: ApproxConf, child):
        urel = self._materialize(child[0])
        rows, dnfs = self.lineage(urel)
        # Straight to the strategy, not through :meth:`confidences`: a
        # session's memo would answer equal lineage once, and Corollary
        # 4.3 gives every tuple its own Karp–Luby run.
        reports = self.aconf_strategy(node).compute_batch(dnfs, self.rng)
        values = [report.value for report in reports]
        return confidence_relation(urel.columns, node.p_name, rows, values), True

    def _poss(self, node: Poss, child):
        return URelation.from_complete(self._materialize(child[0]).possible_tuples()), True

    def _cert(self, node: Cert, child):
        # cert(R) = π_sch(R)(σ_{P=1}(conf(R))).  Certainty tests are
        # singularities (Example 5.7), so cert always uses exact conf.
        relation = self._materialize(child[0])
        conf_rel = self.conf(relation, "__P", self.exact_strategy)
        ones = conf_rel.select(Cmp("=", Attr("__P"), Const(1)))
        return ones.project(list(relation.columns)), True

    def _approx_select(self, node: ApproxSelect, child):
        """σ̂ with exact confidences (the ideal query Q of Section 6)."""
        candidates, group_dnfs = self.sigma_candidates(node, self._materialize(child[0]))
        confidences = []
        for dnfs in group_dnfs:
            reports = self.confidences(list(dnfs.values()), self.exact_strategy)
            confidences.append({key: report.value for key, report in zip(dnfs, reports)})
        columns = node.output_columns()
        rows = set()
        for candidate in candidates.rows:
            env = dict(zip(candidates.columns, candidate))
            for p_name, group, confs in zip(node.p_names, node.groups, confidences):
                env[p_name] = confs[tuple(env[a] for a in group)]
            rows.add(tuple(env[c] for c in columns))
        joined = URelation.from_complete(Relation(columns, frozenset(rows)))
        return joined.select(node.predicate), True

    HANDLERS = {
        BaseRel: _base,
        Literal: _literal,
        Select: _select,
        Project: _project,
        Rename: _rename,
        Product: _product,
        Join: _join,
        Union: _union,
        Difference: _difference,
        RepairKey: _repair_key,
        Conf: _conf,
        ApproxConf: _approx_conf,
        Poss: _poss,
        Cert: _cert,
        ApproxSelect: _approx_select,
    }
    """Operator → handler; subclasses replace entries, never the traversal."""

    # ------------------------------------------------------------------
    # The conf seam: what every confidence-closing operator shares.
    @property
    def strategy(self) -> ConfidenceStrategy:
        """What ``conf`` runs (a session's evaluator reads the session's)."""
        return self._strategy

    @property
    def exact_strategy(self) -> ConfidenceStrategy:
        """What ``cert`` and the ideal σ̂ run: always an exact solver.

        Certainty and threshold tests on sampled confidences are
        singularities (Example 5.7): the current strategy where it names
        one of the two exact solvers, else exact decomposition.
        """
        strategy = self.strategy
        confidence = _confidence()
        return strategy if confidence.is_exact_solver(strategy) else confidence.ExactDecomposition()

    def aconf_strategy(self, node: ApproxConf) -> ConfidenceStrategy:
        """What ``conf_{ε,δ}`` runs: Karp–Luby at the node's own (ε, δ)."""
        return _confidence().KarpLuby(node.eps, node.delta)

    def lineage(
        self, rep: _Rep, rows: Sequence[tuple] | None = None
    ) -> tuple[Sequence[tuple], list[Dnf]]:
        """``rows`` of ``rep`` (default: poss(R) in ``repr`` order) and their DNFs.

        ``rep`` is scalar or columnar; a tuple holding ⊤ gets ``Dnf([⊤])``
        (:func:`repro.confidence.dnf.lineage`)."""
        return _confidence().lineage(rep, self.db.w, rows)

    def confidences(
        self, dnfs: Sequence[Dnf], strategy: ConfidenceStrategy | None = None
    ) -> list[ConfidenceReport]:
        """One report per DNF from ``strategy`` (default: :attr:`strategy`).

        The override point: a session answers from its memo first.
        """
        chosen = self.strategy if strategy is None else strategy
        return list(chosen.compute_batch(dnfs, self.rng))

    def enclosures(self, dnfs: Sequence[Dnf], budget: int) -> list[BoundInterval]:
        """One guaranteed ``lower ≤ P(F) ≤ upper`` box per DNF, trial-free.

        What σ̂ certification, top-k stage 1 and ``explain`` ask before
        (or instead of) weighing a disjunction: the run scope's memo,
        which solves only what it has not seen in this run (a session's
        also asks its cache first) and shards the misses.
        """
        return current_scope().memo(dnfs, budget)

    def plan_confidences(
        self, query: Query, strategy: ConfidenceStrategy | None = None
    ) -> dict[tuple, ConfidenceReport] | None:
        """Step 0: every result tuple's report read off the plan, or ``None``.

        For whoever still has the plan in hand.  When ``strategy``
        (default: :attr:`strategy`) lets safe plans be lifted and
        ``query`` passes both screens of
        :func:`repro.confidence.extensional.lift` on this database, the
        answer is poss(result) in ``repr`` order with exact reports —
        no lineage, enclosure or trial, nothing drawn from :attr:`rng`.
        ``None`` means: take steps 1–3.
        """
        chosen = self.strategy if strategy is None else strategy
        if not chosen.lifts_safe_plans:
            return None
        plan = _confidence().lift(query, self.db)
        return None if plan is None else self._plan_reports(query, plan, chosen)

    def _plan_reports(self, query: Query, plan, strategy: ConfidenceStrategy):
        """Evaluate a lifted plan.  The override point: a session memoizes it."""
        confidence = _confidence()
        values = plan.confidences()
        if values is None:
            return None
        return {
            row: confidence.ConfidenceReport(
                value, strategy.name, confidence.EXTENSIONAL, exact=True
            )
            for row, value in values.items()
        }

    def conf(
        self, urel: URelation, p_name: str, strategy: ConfidenceStrategy | None = None
    ) -> URelation:
        """[[conf(R)]]: lineage → confidences → the complete relation ⟨t, P⟩."""
        rows, dnfs = self.lineage(urel)
        values = [report.value for report in self.confidences(dnfs, strategy)]
        return confidence_relation(urel.columns, p_name, rows, values)

    def sigma_candidates(
        self, node: ApproxSelect, child: URelation, phantom_rows=()
    ) -> tuple[Relation, list[dict[tuple, Dnf]]]:
        """σ̂'s candidate tuples: the natural join over the group key sets.

        Returns the candidates (a complete relation over the grouped
        attributes, Ā₁ ∪ … ∪ Ā_k in join order) and, per group, the DNF
        of every key of π_{Āᵢ}(``child``).  ``phantom_rows`` — rows that
        may be wrongly absent from ``child`` — contribute keys but no
        DNF.  Every σ̂ consumer (this evaluator, the approximate
        evaluator, ``explain``) builds its candidates here.
        """
        candidates: Relation | None = None
        group_dnfs = []
        for group in node.groups:
            group_keys, key_dnfs = self.lineage(child.project(list(group)))
            dnfs = dict(zip(group_keys, key_dnfs))
            positions = _schema.positions(child.columns, group)
            keys = set(dnfs)
            keys.update(tuple(values[i] for i in positions) for _cond, values in phantom_rows)
            relation = Relation(tuple(group), frozenset(keys))
            candidates = relation if candidates is None else candidates.natural_join(relation)
            group_dnfs.append(dnfs)
        assert candidates is not None  # guaranteed: ApproxSelect validates k >= 1
        return candidates, group_dnfs
