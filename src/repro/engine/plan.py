"""Query plans for ``ProbDB.explain``: operator tree + strategy decisions.

The UA algebra has exactly one expensive operator family — the
confidence closures (``conf``, ``conf_{ε,δ}``, ``cert``, and the conf
groups inside σ̂) — so an explain plan is the operator tree annotated, at
those nodes, with the confidence method the session strategy picks.
Because the ``auto`` policy decides *per tuple* (it inspects each
tuple's DNF), explain runs the sub-plans feeding confidence operators
against a throwaway copy of the database and reports the per-method
tuple counts it observed; like ``EXPLAIN ANALYZE``, the report reflects
actual data, not just syntax.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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
from repro.algebra.printer import unparse_expression
from repro.algebra.pushdown import strip
from repro.algebra.tree import lazy
from repro.confidence.dissociation import DEFAULT_BOUND_BUDGET
from repro.confidence.extensional import EXTENSIONAL

if TYPE_CHECKING:
    from repro.confidence.dnf import Dnf
    from repro.confidence.strategies import ConfidenceStrategy
    from repro.urel.evaluate import UEvaluator

__all__ = [
    "PlanNode",
    "ExplainReport",
    "explain_plan",
    "topk_plan",
    "BELOW_THRESHOLD",
    "BOUNDS_PRUNED",
    "DEFERRED",
    "PUSHED",
]


@dataclass
class PlanNode:
    """One operator of the plan, with its strategy annotation (if any).

    ``path`` names the operator engine the relational operators of this
    node run on — ``columnar[numpy]`` for the vectorized integer-coded
    path, ``scalar[indexed]`` where a product/join's operands stay on
    the pure-Python indexed path,
    ``deferred`` where step 0 answers without running it — so a
    plan shows not only *which confidence method* each conf operator
    picked but also *which algebra implementation* executes the tree.
    """

    operator: str
    detail: str = ""
    strategy: str | None = None
    methods: dict[str, int] = field(default_factory=dict)
    children: tuple["PlanNode", ...] = ()
    path: str | None = None

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        line = f"{pad}{self.operator}"
        if self.detail:
            line += f"[{self.detail}]"
        if self.path is not None:
            line += f"  ·{self.path}"
        if self.strategy is not None:
            chosen = ", ".join(
                f"{method} ×{count}" for method, count in sorted(self.methods.items())
            ) or "no tuples"
            line += f"  ← strategy={self.strategy}: {chosen}"
        return "\n".join([line] + [c.render(indent + 1) for c in self.children])


@dataclass
class ExplainReport:
    """The full plan for one query, as returned by ``ProbDB.explain``."""

    root: PlanNode
    strategy: str

    def chosen_methods(self) -> set[str]:
        """Every concrete confidence method some operator routed to."""
        out: set[str] = set()

        def visit(node: PlanNode) -> None:
            out.update(node.methods)
            for child in node.children:
                visit(child)

        visit(self.root)
        return out

    @property
    def text(self) -> str:
        return self.root.render()

    def __str__(self) -> str:
        return f"plan (session strategy: {self.strategy})\n{self.text}"


def explain_plan(
    node: Query,
    evaluator: "UEvaluator",
    strategy: "ConfidenceStrategy",
) -> ExplainReport:
    """Build the annotated plan for ``node``.

    ``evaluator`` must wrap a throwaway copy of the session database —
    explain executes repair-keys (extending that copy's W) to see the
    DNFs that confidence operators will face.  Relational nodes are
    annotated with the columnar engine (``path``); when the evaluator's
    executor has two or more workers, the operators it fans out over
    them are annotated ``·sharded[n]`` (n = configured workers).
    The tree is the one the evaluator runs: selection copies the
    pushdown pass placed render as ``select[φ]  ·pushed``, and the
    operators of a plan step 0 answers as ``·deferred``.
    """
    deferred = evaluator.plan_confidences(node, strategy) is not None
    plan = evaluator._pushed(node)
    return ExplainReport(_PlanPass(evaluator, strategy, deferred).build(plan), strategy.name)


BELOW_THRESHOLD = "below-threshold"
"""Annotation suffix: the executor would not fan this workload out.

The README's "when serial wins" guidance, mechanized: a session with a
pool pays nothing for workloads under the profitable shard size — they
run as one shard, in process — but a plan that *says so* lets an operator
reading ``explain`` output see that raising ``workers`` cannot help this
query.
"""


PUSHED = "pushed"
"""Annotation of a selection copy the pushdown pass placed
(:mod:`repro.algebra.pushdown`): the evaluator filters this operand
before the merge above it, and the ``select`` as written still runs."""


DEFERRED = "deferred"
"""Annotation of an operator below a step-0 answer: it runs only if a
caller asks for the intensional relation itself."""


BOUNDS_PRUNED = "bounds-pruned"
"""Annotation suffix on σ̂ nodes: ``bounds-pruned[k/n]`` means k of the
n group-confidence DNFs this selection decides have *exact* dissociation
bound intervals — the Theorem 6.7 driver certifies those values without
drawing a Karp–Luby trial (see :mod:`repro.confidence.dissociation`),
so only the remaining n−k consume round budget."""


def _has_pool(executor) -> bool:
    """Whether ``sharded[n]`` annotations apply: "fans out over n workers".

    Every session runs the same shard plan, so with one worker there is
    no fan-out to report (and no cost model worth evaluating).
    """
    return executor.workers >= 2


def _sharded_path(executor, fans_out: bool) -> str:
    """The ``sharded[n]`` annotation of an operator on a pooled executor.

    ``fans_out=False`` appends the ``below-threshold`` warning — the
    workload is under the profitable shard size, so every worker count
    runs it serially.
    """
    path = f"sharded[{executor.workers}]"
    if not fans_out:
        path += f"·{BELOW_THRESHOLD}"
    return path


def _conf_path(executor, strategy, dnfs) -> str | None:
    """The sharded annotation of a conf-family operator, if any.

    Mirrors the runtime's two levers: the per-tuple DNF list shards when
    ``plan_items`` cuts it, and a batch too short to cut still fans out
    when some tuple's Monte-Carlo budget alone fills worker blocks
    (``plan_trials`` of :meth:`ConfidenceStrategy.trial_budget`).
    """
    if not _has_pool(executor):
        return None
    fans_out = len(executor.plan_items(len(dnfs))) > 1 or any(
        len(executor.plan_trials(strategy.trial_budget(dnf))) > 1 for dnf in dnfs
    )
    return _sharded_path(executor, fans_out)


def _tally(strategy: "ConfidenceStrategy", dnfs) -> dict[str, int]:
    """How many of ``dnfs`` the strategy routes to each concrete method."""
    counts: dict[str, int] = {}
    for dnf in dnfs:
        method = strategy.choose(dnf)
        counts[method] = counts.get(method, 0) + 1
    return counts


class _PlanPass:
    """One explain pass: a handler table over :func:`fold` building ``PlanNode``s.

    Explain inspects actual data at every conf *and* product/join node,
    so the pass memoizes the evaluator's *in-flight* representation of
    each inspected sub-query (columnar inside the envelope, scalar
    outside it) — the very object the runtime's lift test inspects, so
    the cost-model annotations cannot diverge from what the evaluator
    would actually do with that node's children.  Keyed by node
    identity: the tree root keeps every node alive for the pass.
    """

    def __init__(self, evaluator: "UEvaluator", strategy: "ConfidenceStrategy", deferred=False):
        self.evaluator = evaluator
        self.strategy = strategy
        self.executor = evaluator.executor
        # Names the configured engine; at runtime individual relations
        # outside the columnar envelope (tiny, or too many condition
        # variables) fall back to the indexed scalar operators.
        self.path = DEFERRED if deferred else "columnar[numpy]"
        self._reps: dict[int, object] = {}

    def build(self, node: Query) -> PlanNode:
        return fold(node, self.HANDLERS, "explain", self)

    def rep(self, node: Query):
        """The evaluator's representation of ``node``'s result, memoized."""
        rep = self._reps.get(id(node))
        if rep is None:
            rep, _complete = self.evaluator._eval_rep(node)
            self._reps[id(node)] = rep
        return rep

    def relation(self, node: Query):
        """The materialized (scalar) relation for ``node``, via the rep memo."""
        return self.evaluator._materialize(self.rep(node))

    def tuple_dnfs(self, node: Query) -> list[Dnf]:
        """The DNF of every possible tuple of ``node``'s result.

        The list doubles as the workload the shard cost model inspects:
        its length is what :meth:`~repro.util.parallel.ShardExecutor.plan_items`
        cuts, and each member's :meth:`ConfidenceStrategy.trial_budget` is
        what :meth:`~repro.util.parallel.ShardExecutor.plan_trials` cuts.
        """
        return self.evaluator.lineage(self.relation(node))[1]

    # ----------------------------------------------------------- handlers
    def _scan(self, node: BaseRel) -> PlanNode:
        return PlanNode("scan", node.name)

    def _literal(self, node: Literal) -> PlanNode:
        return PlanNode("literal", f"{len(node.relation)} rows")

    def _select(self, node: Select, child: PlanNode) -> PlanNode:
        return PlanNode(
            "select",
            unparse_expression(node.condition),
            children=(child,),
            path=PUSHED if node.pushed else self.path,
        )

    def _project(self, node: Project, child: PlanNode) -> PlanNode:
        return PlanNode(
            "project",
            ", ".join(name for _, name in node.items),
            children=(child,),
            path=self.path,
        )

    def _rename(self, node: Rename, child: PlanNode) -> PlanNode:
        return PlanNode(
            "rename",
            ", ".join(f"{a}->{b}" for a, b in node.mapping),
            children=(child,),
            path=self.path,
        )

    def _pair_merge(self, node: "Product | Join", left: PlanNode, right: PlanNode) -> PlanNode:
        """A product/join node, with its operator-engine annotation.

        On the columnar path with a pooled executor, the pair merge may
        fan out.  The fan-out test consults the *same* schedule the operator
        runs: products (and joins without shared attributes, which fall to
        the all-pairs path) ask ``plan_all_pairs`` over the child row
        counts; key joins ask ``plan_pairs`` over n₁·n₂ — an upper bound on
        the candidate pairs the key match emits, so a join annotated
        ``below-threshold`` certainly runs serially while one annotated
        sharded may still fall back if few keys match.  Below the
        profitable size the node carries the ``below-threshold`` warning.
        The scalar path never shards and stays bare.
        """
        is_product = isinstance(node, Product)
        operator = "product" if is_product else "join"
        executor = self.executor
        if not _has_pool(executor) or self.path != "columnar[numpy]":
            return PlanNode(operator, children=(left, right), path=self.path)
        left_rep, right_rep = self.rep(node.left), self.rep(node.right)
        # Consult the evaluator's own lift test, on the same in-flight
        # representations the runtime would hold here: operands the runtime
        # refuses to make columnar (outside the row/variable envelope,
        # cross-type conflation taint, merged condition layout too wide)
        # run the scalar serial operator — annotating them "sharded" would
        # promise a fan-out that cannot happen — while columnar-born
        # intermediates stay columnar however small they are.
        if self.evaluator._lift_pair(left_rep, right_rep) is None:
            return PlanNode(operator, children=(left, right), path="scalar[indexed]")
        n1, n2 = len(left_rep), len(right_rep)
        if is_product or not (set(left_rep.columns) & set(right_rep.columns)):
            fans_out = len(executor.plan_all_pairs(n1, n2)) > 1
        else:
            fans_out = len(executor.plan_pairs(n1 * n2)) > 1
        path = f"{self.path}·{_sharded_path(executor, fans_out)}"
        return PlanNode(operator, children=(left, right), path=path)

    def _union(self, node: Union, left: PlanNode, right: PlanNode) -> PlanNode:
        return PlanNode("union", children=(left, right), path=self.path)

    def _difference(self, node: Difference, left: PlanNode, right: PlanNode) -> PlanNode:
        return PlanNode("difference", children=(left, right))

    def _repair_key(self, node: RepairKey, child: PlanNode) -> PlanNode:
        key = ", ".join(node.key) or "∅"
        return PlanNode("repair-key", f"{key} @ {node.weight}", children=(child,))

    def _poss(self, node: Poss, child: PlanNode) -> PlanNode:
        return PlanNode("poss", children=(child,))

    @lazy
    def _conf(self, node: Conf, child) -> PlanNode:
        lifted = self.evaluator.plan_confidences(strip(node.child), self.strategy)
        if lifted is not None:
            # Step 0 answers the whole node: there is no per-DNF routing
            # to take a census of, nothing to fan out, and no child to run.
            methods, path = {EXTENSIONAL: len(lifted)}, EXTENSIONAL
            below = _PlanPass(self.evaluator, self.strategy, deferred=True).build(node.child)
        else:
            below = child()
            dnfs = self.tuple_dnfs(node.child)
            methods = _tally(self.strategy, dnfs)
            path = _conf_path(self.executor, self.strategy, dnfs)
        return PlanNode(
            "conf",
            node.p_name,
            strategy=self.strategy.name,
            methods=methods,
            children=(below,),
            path=path,
        )

    def _cert(self, node: Cert, child: PlanNode) -> PlanNode:
        # Certainty is never sampled: the runtime's exact solver, not the
        # session strategy.
        exact = self.evaluator.exact_strategy
        return PlanNode(
            "cert",
            strategy=exact.name,
            methods=_tally(exact, self.tuple_dnfs(node.child)),
            children=(child,),
        )

    def _approx_conf(self, node: ApproxConf, child: PlanNode) -> PlanNode:
        dnfs = self.tuple_dnfs(node.child)
        # aconf always runs Karp–Luby at the node's own (ε, δ); the cost
        # model must rate its budgets, not the session strategy's.
        node_sampler = self.evaluator.aconf_strategy(node)
        return PlanNode(
            "aconf",
            f"ε={node.eps}, δ={node.delta}",
            strategy=node_sampler.name,
            methods={node_sampler.name: len(dnfs)},
            children=(child,),
            path=_conf_path(self.executor, node_sampler, dnfs),
        )

    def _approx_select(self, node: ApproxSelect, child: PlanNode) -> PlanNode:
        # σ̂ fans out over its *candidate tuples* (one Figure 3 decision
        # each), which the runtime builds as the natural join of the
        # group key sets — a count that can far exceed the sum of the
        # per-group tuple counts for multi-group predicates.  Ask the
        # evaluator for the same join over the observed (present) keys;
        # phantom-derived keys from approximate subtrees can only add
        # candidates, so a node annotated as fanning out certainly does.
        # A narrow selection still fans out when some group DNF's
        # Monte-Carlo budget alone fills worker blocks — the sequential
        # candidate loop shards each value's trial allocation (the
        # session strategy's budget stands in for the runtime's l·|F|
        # rounds).
        executor, strategy = self.executor, self.strategy
        candidates, group_dnfs = self.evaluator.sigma_candidates(
            node, self.relation(node.child)
        )
        dnfs = [dnf for by_key in group_dnfs for dnf in by_key.values()]
        path = None
        if _has_pool(executor):
            fans_out = len(executor.plan_items(len(candidates.rows))) > 1 or any(
                len(executor.plan_trials(strategy.trial_budget(dnf))) > 1 for dnf in dnfs
            )
            path = _sharded_path(executor, fans_out)
        # Group DNFs the driver's bound pruning certifies outright: not
        # degenerate (those are free for every method) but with an exact
        # dissociation interval — e.g. repair-key alternatives.
        nontrivial = [
            dnf for dnf in dnfs if not (dnf.is_empty or dnf.is_trivially_true or dnf.size == 1)
        ]
        pruned = sum(
            interval.is_exact
            for interval in self.evaluator.enclosures(nontrivial, DEFAULT_BOUND_BUDGET)
        )
        if pruned:
            tag = f"{BOUNDS_PRUNED}[{pruned}/{len(dnfs)}]"
            path = tag if path is None else f"{path}·{tag}"
        return PlanNode(
            "approx-select",
            unparse_expression(node.predicate),
            strategy=strategy.name,
            methods=_tally(strategy, dnfs),
            children=(child,),
            path=path,
        )

    HANDLERS = {
        BaseRel: _scan,
        Literal: _literal,
        Select: _select,
        Project: _project,
        Rename: _rename,
        Product: _pair_merge,
        Join: _pair_merge,
        Union: _union,
        Difference: _difference,
        RepairKey: _repair_key,
        Conf: _conf,
        ApproxConf: _approx_conf,
        Poss: _poss,
        Cert: _cert,
        ApproxSelect: _approx_select,
    }


def topk_plan(
    node: Query,
    evaluator: "UEvaluator",
    strategy: "ConfidenceStrategy",
    k: int,
) -> ExplainReport:
    """The annotated plan for ``ProbDB.topk(node, k)``.

    The racing driver sits above the query like one big conf-family
    operator: every candidate tuple of the result feeds a Karp–Luby
    race unless its dissociation enclosure decides it at stage 1.  The
    root is annotated ``topk[k]·bounds-pruned[m/n]`` — m of the n
    candidate DNFs have *exact* enclosures, so they are ranked without
    drawing a single trial — plus the usual ``sharded[w]`` marker when
    the session fans rounds out.  Where the plan lifts (step 0 of the
    conf seam) there is no race and no DNF: the root says
    ``topk[k]·extensional`` and the operators below it ``·deferred``.
    """
    lifted = evaluator.plan_confidences(node, strategy)
    plan_pass = _PlanPass(evaluator, strategy, deferred=lifted is not None)
    plan = evaluator._pushed(node)
    child = plan_pass.build(plan)
    if lifted is not None:
        # No race: the ranking is read off the lifted plan's exact values.
        methods, path = {EXTENSIONAL: len(lifted)}, f"topk[{k}]·{EXTENSIONAL}"
    else:
        dnfs = plan_pass.tuple_dnfs(plan)
        methods = _tally(strategy, dnfs)
        # Degenerate disjunctions enclose to a point too.
        pruned = sum(
            interval.is_exact for interval in evaluator.enclosures(dnfs, DEFAULT_BOUND_BUDGET)
        )
        path = f"topk[{k}]·{BOUNDS_PRUNED}[{pruned}/{len(dnfs)}]"
        sharded = _conf_path(evaluator.executor, strategy, dnfs)
        if sharded is not None:
            path = f"{path}·{sharded}"
    root = PlanNode(
        "topk", strategy=strategy.name, methods=methods, children=(child,), path=path
    )
    return ExplainReport(root, strategy.name)
