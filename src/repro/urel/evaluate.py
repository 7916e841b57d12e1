"""UA evaluation over U-relational databases (Section 3 + Corollary 4.3).

The evaluator interprets the same operator AST as the possible-worlds
engine, but on the succinct representation:

* positive relational algebra, ``poss`` and ``repair-key`` run as the
  parsimonious translations (Proposition 3.3 — no look at W except to
  extend it with fresh repair-key variables);
* ``conf`` invokes an exact #P subprocedure
  (`repro.confidence.exact`) — this is the evaluation strategy behind
  Theorem 3.4;
* ``conf_{ε,δ}`` invokes the Karp–Luby FPRAS (Corollary 4.3);
* ``σ̂`` is evaluated here with *exact* confidences; the genuinely
  approximate σ̂ with per-tuple error accounting is
  `repro.core.approx_select.ApproxQueryEvaluator`, a subclass that
  replaces the σ̂ handler and the operators above a σ̂.

``backend`` selects the operator engine for the purely-relational
subtrees, through the same ``resolve_backend("auto"|"numpy"|"python")``
switch as the Monte Carlo trial backends: ``numpy`` runs
``select``/``project``/``rename``/``union``/``product``/``natural_join``
on the columnar integer-coded representation
(:mod:`repro.urel.columnar`), keeping intermediates columnar across the
subtree and materializing a scalar :class:`URelation` only at
confidence / repair-key / possibility boundaries; ``python`` (and any
environment without NumPy) uses the indexed scalar operators of
:class:`URelation` directly.  Relations outside the columnar envelope
(fewer than ``ColumnarContext.min_rows`` rows, or more than
``max_vars`` condition variables — e.g. tuple-independent inputs with
one variable per row) quietly stay on the indexed scalar path even
under ``numpy``.  Both paths produce setwise-identical relations.

For the paper's session style (``R := query``, one growing W table
threaded through consecutive assignments) use ``repro.connect(db)``.
"""

from __future__ import annotations

import random
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
)
from repro.algebra import schema as _schema
from repro.algebra.expressions import Attr, Cmp, Const
from repro.algebra.relations import Relation
from repro.urel.columnar import ColumnarContext, ColumnarURelation
from repro.util.backends import resolve_backend
from repro.urel.translate import (
    approx_confidence_relation,
    exact_confidence_relation,
    translate_repair_key,
)
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.util.parallel import SERIAL_EXECUTOR
from repro.util.rng import ensure_rng
from repro.worlds.repair import RepairError

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.confidence.dnf import Dnf

__all__ = ["UEvaluator", "UResult"]

_Rep = _Union[URelation, ColumnarURelation]
"""An intermediate result: scalar, or columnar on the numpy path."""


@dataclass
class UResult:
    """Evaluation output: the result U-relation and its completeness flag."""

    relation: URelation
    complete: bool


class UEvaluator:
    """Evaluator for UA queries on a U-relational database.

    A handler table over :func:`repro.algebra.operators.fold`: one
    method per operator, receiving the node and its operands'
    ``(representation, complete)`` results.

    ``conf_method`` selects the exact solver ("decomposition" or
    "enumeration"); ``rng`` seeds all approximate operators; ``backend``
    selects the relational-operator engine (``"numpy"`` columnar /
    ``"python"`` scalar; ``None``/``"auto"`` picks numpy when
    importable); ``executor`` (a
    :class:`~repro.util.parallel.ShardExecutor`; default: the
    process-wide serial one) runs the columnar product/join pair merges
    and the ``aconf`` trial budgets, bit-identically at every worker
    count.  When ``copy_db`` is true the input database
    (including W) is left untouched and repair-key variables go into a
    private copy.
    """

    def __init__(
        self,
        db: UDatabase,
        conf_method: str = "decomposition",
        rng: random.Random | int | None = None,
        copy_db: bool = True,
        backend: str | None = None,
        executor=None,
    ):
        self.db = db.copy() if copy_db else db
        self.conf_method = conf_method
        self.rng = ensure_rng(rng)
        self.conf_log: list = []
        self.backend = resolve_backend(backend)
        # Columnar product/join pair merges and aconf trial budgets run
        # on it; the shard plan is a function of row and trial counts
        # only, so results are bit-identical at every worker count.
        self.executor = executor or SERIAL_EXECUTOR
        self._pool = self.db.condition_pool
        if self.backend == "numpy":
            # One coding context per database family (shared through
            # UDatabase.copy, like the pool), so per-relation encoding
            # memos hit across session and scratch evaluators alike.
            # Attached under the database lock: evaluators on different
            # threads must agree on one context.
            self._ctx = self.db.ensure_columnar_context(
                lambda: ColumnarContext(self.db.w, self._pool)
            )
        else:
            self._ctx = None

    # ------------------------------------------------------------------
    def evaluate(self, query: Query) -> UResult:
        relation, complete = self.eval(query)
        return UResult(relation, complete)

    def eval(self, query: Query) -> tuple[URelation, bool]:
        rep, complete = self._eval_rep(query)
        return self._materialize(rep), complete

    # -- representation plumbing ---------------------------------------
    def _materialize(self, rep: _Rep) -> URelation:
        """A scalar :class:`URelation` for ``rep`` (decode if columnar)."""
        return rep if isinstance(rep, URelation) else rep.to_urelation()

    def _lift(self, rep: _Rep) -> _Rep:
        """The operator-engine form of ``rep``: columnar on the numpy path.

        Scalar relations outside the columnar envelope (too small to
        amortize array setup, or too many condition variables for the
        dense matrix — see :meth:`ColumnarContext.worth_encoding`) are
        returned unchanged and run the indexed scalar operators instead.
        """
        if (
            self._ctx is not None
            and isinstance(rep, URelation)
            and self._ctx.worth_encoding(rep)
        ):
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
        if self._ctx is None:
            return None
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
        return self._lift(rep).select(node.condition), complete

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
            return left.product(right, executor=self.executor), complete
        return left.product(right, pool=self._pool), complete

    def _join(self, node: Join, left, right):
        columnar, left, right, complete = self._operands(left, right)
        if columnar:
            return left.natural_join(right, executor=self.executor), complete
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

    def _conf(self, node: Conf, child):
        return self.eval_conf(self._materialize(child[0]), node.p_name), True

    def _approx_conf(self, node: ApproxConf, child):
        relation, estimates = approx_confidence_relation(
            self._materialize(child[0]),
            self.db.w,
            node.eps,
            node.delta,
            self.rng,
            node.p_name,
            backend=self.backend,
            executor=self.executor,
        )
        self.conf_log.append(estimates)
        return relation, True

    def _poss(self, node: Poss, child):
        return URelation.from_complete(self._materialize(child[0]).possible_tuples()), True

    def _cert(self, node: Cert, child):
        # cert(R) = π_sch(R)(σ_{P=1}(conf(R))).  Certainty tests are
        # singularities (Example 5.7), so cert always uses exact conf.
        relation = self._materialize(child[0])
        conf_rel = exact_confidence_relation(relation, self.db.w, "__P", self.conf_method)
        ones = conf_rel.select(Cmp("=", Attr("__P"), Const(1)))
        return ones.project(list(relation.columns)), True

    def _approx_select(self, node: ApproxSelect, child):
        """σ̂ with exact confidences (the ideal query Q of Section 6)."""
        from repro.confidence.exact import exact_probability  # package cycle

        candidates, group_dnfs = self.sigma_candidates(node, self._materialize(child[0]))
        confidences = [
            {key: exact_probability(dnf, self.conf_method) for key, dnf in dnfs.items()}
            for dnfs in group_dnfs
        ]
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
    def eval_conf(self, child: URelation, p_name: str) -> URelation:
        """[[conf(R)]] for an evaluated child — the strategy override point.

        The engine facade overrides this to route through its pluggable
        confidence-strategy registry; the plain evaluator runs the exact
        Theorem 3.4 subprocedure.
        """
        return exact_confidence_relation(child, self.db.w, p_name, self.conf_method)

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
        from repro.confidence.dnf import Dnf  # package cycle

        candidates: Relation | None = None
        group_dnfs = []
        for group in node.groups:
            projected = child.project(list(group))
            dnfs = {
                key: Dnf.for_tuple(projected, key, self.db.w)
                for key in projected.possible_tuples().rows
            }
            positions = _schema.positions(child.columns, group)
            keys = set(dnfs)
            keys.update(tuple(values[i] for i in positions) for _cond, values in phantom_rows)
            relation = Relation(tuple(group), frozenset(keys))
            candidates = relation if candidates is None else candidates.natural_join(relation)
            group_dnfs.append(dnfs)
        assert candidates is not None  # guaranteed: ApproxSelect validates k >= 1
        return candidates, group_dnfs
