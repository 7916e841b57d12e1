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
  approximate σ̂ with per-tuple error accounting is layered on top in
  `repro.core.approx_select` by overriding :meth:`UEvaluator.approx_select`.

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
)
from repro.algebra.expressions import Attr, Cmp, Const
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

__all__ = ["UEvaluator", "UResult"]

_Rep = _Union[URelation, ColumnarURelation]
"""An intermediate result: scalar, or columnar on the numpy path."""


@dataclass
class UResult:
    """Evaluation output: the result U-relation and its completeness flag."""

    relation: URelation
    complete: bool


class UEvaluator:
    """Recursive evaluator for UA queries on a U-relational database.

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

    # -- recursive evaluation ------------------------------------------
    def _eval_rep(self, query: Query) -> tuple[_Rep, bool]:
        if isinstance(query, BaseRel):
            return self.db.relation(query.name), self.db.is_complete(query.name)

        if isinstance(query, Literal):
            return URelation.from_complete(query.relation), True

        if isinstance(query, Select):
            child, complete = self._eval_rep(query.child)
            return self._lift(child).select(query.condition), complete

        if isinstance(query, Project):
            child, complete = self._eval_rep(query.child)
            return self._lift(child).project(list(query.items)), complete

        if isinstance(query, Rename):
            child, complete = self._eval_rep(query.child)
            return self._lift(child).rename(query.as_dict()), complete

        if isinstance(query, Product):
            left, lc = self._eval_rep(query.left)
            right, rc = self._eval_rep(query.right)
            pair = self._lift_pair(left, right)
            if pair is not None:
                return pair[0].product(pair[1], executor=self.executor), lc and rc
            left, right = self._materialize(left), self._materialize(right)
            return left.product(right, pool=self._pool), lc and rc

        if isinstance(query, Join):
            left, lc = self._eval_rep(query.left)
            right, rc = self._eval_rep(query.right)
            pair = self._lift_pair(left, right)
            if pair is not None:
                return pair[0].natural_join(pair[1], executor=self.executor), lc and rc
            left, right = self._materialize(left), self._materialize(right)
            return left.natural_join(right, pool=self._pool), lc and rc

        if isinstance(query, Union):
            left, lc = self._eval_rep(query.left)
            right, rc = self._eval_rep(query.right)
            pair = self._lift_pair(left, right)
            if pair is not None:
                return pair[0].union(pair[1]), lc and rc
            left, right = self._materialize(left), self._materialize(right)
            return left.union(right), lc and rc

        if isinstance(query, Difference):
            left, lc = self.eval(query.left)
            right, rc = self.eval(query.right)
            if not (lc and rc):
                raise ValueError(
                    "general difference is not in positive UA; only −_c on "
                    "complete relations is supported by the U-relational engine"
                )
            return left.difference_complete(right), True

        if isinstance(query, RepairKey):
            child, complete = self.eval(query.child)
            if not complete:
                from repro.worlds.repair import RepairError

                raise RepairError(
                    "repair-key requires a complete relation (c(R)=1, Definition 2.1)"
                )
            result = translate_repair_key(
                child, query.key, query.weight, query.op_id, self.db.w
            )
            return result, False

        if isinstance(query, Conf):
            child, _complete = self.eval(query.child)
            return self.eval_conf(child, query.p_name), True

        if isinstance(query, ApproxConf):
            child, _complete = self.eval(query.child)
            relation, estimates = approx_confidence_relation(
                child,
                self.db.w,
                query.eps,
                query.delta,
                self.rng,
                query.p_name,
                backend=self.backend,
                executor=self.executor,
            )
            self.conf_log.append(estimates)
            return relation, True

        if isinstance(query, Poss):
            child, _complete = self.eval(query.child)
            return URelation.from_complete(child.possible_tuples()), True

        if isinstance(query, Cert):
            # cert(R) = π_sch(R)(σ_{P=1}(conf(R))).  Certainty tests are
            # singularities (Example 5.7), so cert always uses exact conf.
            child, _complete = self.eval(query.child)
            conf_rel = exact_confidence_relation(
                child, self.db.w, "__P", self.conf_method
            )
            ones = conf_rel.select(Cmp("=", Attr("__P"), Const(1)))
            return ones.project(list(child.columns)), True

        if isinstance(query, ApproxSelect):
            child, complete = self.eval(query.child)
            return self.approx_select(query, child, complete)

        raise TypeError(f"unknown query node {query!r}")

    # ------------------------------------------------------------------
    def eval_conf(self, child: URelation, p_name: str) -> URelation:
        """[[conf(R)]] for an evaluated child — the strategy override point.

        The engine facade overrides this to route through its pluggable
        confidence-strategy registry; the plain evaluator runs the exact
        Theorem 3.4 subprocedure.
        """
        return exact_confidence_relation(child, self.db.w, p_name, self.conf_method)

    def approx_select(
        self, query: ApproxSelect, child: URelation, child_complete: bool
    ) -> tuple[URelation, bool]:
        """σ̂ with exact confidences (the ideal query Q of Section 6).

        `repro.core` overrides this hook with the genuinely approximate
        version Q∼ that uses the Figure 3 algorithm per candidate tuple.
        """
        joined = self.conf_join(query, child)
        return joined.select(query.predicate), True

    def conf_join(self, query: ApproxSelect, child: URelation) -> URelation:
        """ρ_{P→P₁}(conf(π_{Ā₁}(R))) ⋈ … ⋈ ρ_{P→P_k}(conf(π_{Ā_k}(R)))."""
        joined: URelation | None = None
        for group, p_name in zip(query.groups, query.p_names):
            projected = child.project(list(group))
            conf_rel = exact_confidence_relation(
                projected, self.db.w, p_name, self.conf_method
            )
            joined = conf_rel if joined is None else joined.natural_join(conf_rel)
        assert joined is not None  # guaranteed: ApproxSelect validates k >= 1
        return joined
