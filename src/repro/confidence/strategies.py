"""Pluggable confidence strategies and the ``auto`` selection policy.

The paper mixes three ways of turning a disjunction F of partial
functions into a probability: the exact #P solvers behind ``conf``
(Theorem 3.4), the Karp–Luby FPRAS behind ``conf_{ε,δ}`` (Corollary
4.3), and the naive Monte-Carlo baseline it beats.  Each is a named
:class:`ConfidenceStrategy` in a registry, so sessions can switch
methods without touching query code, plus ``auto``: a per-tuple policy
that inspects the DNF — degenerate cases, read-once structure (pairwise
variable-disjoint clauses), and size — and routes each tuple to the
cheapest method that is still sound.  ``auto`` is also the one strategy
that lets an evaluator answer a safe plan over tuple-independent
relations without any DNF (:attr:`ConfidenceStrategy.lifts_safe_plans`,
:mod:`repro.confidence.extensional`); its per-tuple order is what is
left for every other input.

Evaluators take strategy *objects*
(``UEvaluator(db, strategy=KarpLuby(0.1, 0.01))``; sessions resolve
their ``strategy="karp-luby"`` name here, once) and reach them through
one seam — ``lineage`` → ``confidences`` → ``confidence_relation``, see
:class:`repro.urel.evaluate.UEvaluator`.  The module sits in
``confidence`` rather than ``engine`` because that evaluator is below
the engine; :mod:`repro.engine.strategies` re-exports it unchanged.

Registry protocol — two methods, one signature::

    strategy = resolve_strategy("auto", eps=0.1, delta=0.01)
    report = strategy.compute(dnf, rng)     # -> ConfidenceReport
    reports = strategy.compute_batch(dnfs, rng)   # batched
    method = strategy.choose(dnf)           # what compute() would run

Sampling strategies may override :meth:`ConfidenceStrategy.compute_batch`
to draw trials in blocks shared across a whole batch of tuples (see
:mod:`repro.confidence.batch`).  Third parties register their own
strategies with :func:`register_strategy`; strategy classes are
instantiated as ``cls(eps=..., delta=...)``.

A strategy that fans out reads ``current_scope().executor``
(:mod:`repro.util.scope`): the session's
:class:`~repro.util.parallel.ShardExecutor` inside a request, the
process-wide serial one outside every run scope.  Every per-tuple DNF
list is one fan-out list: tuple ``i`` draws from
``shard_seed(base, i)``, ``base`` one draw from the caller's generator,
and the executor's plan only decides how the list is cut — so answers
are bit-identical for every worker count and every shard plan.
"""

from __future__ import annotations

import math
import random
from contextlib import nullcontext
from dataclasses import dataclass, replace

from collections.abc import Sequence

from repro.confidence.batch import (
    batch_approximate_confidence,
    batch_naive_confidence,
    naive_sample_size_additive,
    shared_block_confidences,
)
from repro.confidence.dissociation import (
    DEFAULT_BOUND_BUDGET,
    BoundInterval,
    dissociation_interval,
    dissociation_intervals,
    routing_intervals,
)
from repro.confidence.dnf import Dnf
from repro.confidence.exact import (
    probability_by_decomposition,
    probability_by_enumeration,
)
from repro.util.parallel import ShardExecutor, shard_seed
from repro.util.scope import current_scope, run_scope
from repro.worlds.database import Prob

__all__ = [
    "ConfidenceReport",
    "ConfidenceStrategy",
    "DissociationBounds",
    "ExactDecomposition",
    "ExactEnumeration",
    "KarpLuby",
    "NaiveMonteCarlo",
    "AutoStrategy",
    "register_strategy",
    "resolve_strategy",
    "strategy_names",
    "dnf_is_read_once",
    "is_exact_solver",
    "DEFAULT_EPS",
    "DEFAULT_DELTA",
    "compute_batch_with_executor",
    "compute_with_executor",
    "UnknownStrategyError",
]

DEFAULT_EPS = 0.1
DEFAULT_DELTA = 0.01


class UnknownStrategyError(ValueError):
    """Raised when a strategy name is not in the registry."""


@dataclass(frozen=True)
class ConfidenceReport:
    """One tuple-confidence computation, with its audit trail.

    ``strategy`` is the registry name the session asked for; ``method``
    is the concrete method that actually ran (they differ under
    ``auto``).  ``exact`` marks values free of sampling error.
    ``lower``/``upper`` carry a *guaranteed* enclosing interval when the
    method produced one (dissociation bounds); unlike (ε, δ) error bars
    they hold with certainty, and ``lower == upper`` implies ``exact``.
    ``auto``'s sampled reports carry the pair too: it is the step-4
    enclosure that sized the Karp–Luby run (``samples`` follows from
    ``lower``, see :class:`AutoStrategy`) and that the estimate is
    clipped into.  A sampled report without it ran the paper's |F|
    budget.
    """

    value: Prob
    strategy: str
    method: str
    exact: bool
    samples: int = 0
    eps: float | None = None
    delta: float | None = None
    lower: Prob | None = None
    upper: Prob | None = None

    def __float__(self) -> float:
        """Return the confidence value as a float."""
        return float(self.value)


def _scope_on(executor: "ShardExecutor | None"):
    """A run scope on ``executor``; if it is ``None``, none (the caller's stays)."""
    return nullcontext() if executor is None else run_scope(executor=executor)


class ConfidenceStrategy:
    """Base class: a named way of computing the weight of a DNF."""

    name: str = "?"

    consumes_rng: bool = True
    """Whether :meth:`compute`/:meth:`compute_batch` may draw from the
    caller's generator.  Exact strategies set this ``False`` so an
    all-exact batch does not spend one ``getrandbits(64)`` of session
    entropy on item seeds it never uses — which in turn
    lets the serving layer's global cache budget evict exact entries
    without shifting the session's sampled stream.  Third parties keep
    the conservative default."""

    lifts_safe_plans: bool = False
    """Whether an evaluator holding the plan may answer it extensionally
    (:mod:`repro.confidence.extensional`) without showing this strategy
    a single DNF.  A property of the strategy *object*, never of its
    name: ``auto`` turns it on; a registered third-party strategy or a
    delegating wrapper (which may well report ``name = "auto"``) keeps
    the default and keeps receiving every DNF through
    :meth:`compute_batch`."""

    @property
    def cache_token(self) -> tuple:
        """Hashable identity of this strategy *configuration*.

        Cache keys include it so two instances that could answer the
        same DNF differently (other (ε, δ), other routing thresholds)
        never share an entry.
        """
        return (self.name,)

    def choose(self, dnf: Dnf) -> str:
        """Name of the concrete method :meth:`compute` would run on ``dnf``."""
        return self.name

    def compute(self, dnf: Dnf, rng: random.Random) -> ConfidenceReport:
        """Compute the weight of ``dnf`` (sampling, if at all, from ``rng``)."""
        raise NotImplementedError

    def compute_batch(self, dnfs: Sequence[Dnf], rng: random.Random) -> list[ConfidenceReport]:
        """Confidences for a whole batch of disjunctions (one per tuple).

        Each DNF is an item of one fan-out list (:meth:`_map_items`), so
        every tuple gets an independent run, as Corollary 4.3 does, and
        the answers depend on neither the worker count nor the shard
        plan.  The strategy itself travels to the workers, which is why
        strategy instances must stay picklable and must not hold
        executors.  Sampling strategies override this to amortize trial
        drawing across the batch (shared world blocks).
        """
        return self._map_items(self.compute, dnfs, rng)

    def fan_out_lists(self, dnfs: Sequence[Dnf]) -> tuple[int, ...]:
        """Lengths of the item lists :meth:`compute_batch` cuts for ``dnfs``.

        What ``explain`` rates a conf node by: the node fans out iff the
        run scope's plan cuts one of these lists.  The base batch maps
        one list, the DNFs themselves.
        """
        return (len(dnfs),)

    def _map_items(self, compute, items: Sequence, rng: random.Random) -> list:
        """``compute(item, generator)`` per item, mapped on the run scope's executor.

        Item ``i`` gets ``random.Random(shard_seed(base, i))``, ``base``
        one draw from ``rng``; a strategy that never samples
        (:attr:`consumes_rng` false) draws nothing and builds no
        generator — its items get ``None``.  ``compute`` is a bound
        method of this (picklable) strategy, so it travels to the
        workers with the shard; the items are whatever it takes — a
        ``Dnf``, or a DNF with what routing learned about it.
        """
        if self.consumes_rng and items:
            base = rng.getrandbits(64)
            seeded = [(item, shard_seed(base, i)) for i, item in enumerate(items)]
        else:
            seeded = [(item, None) for item in items]
        return current_scope().executor.map_items(_strategy_shard_task, seeded, compute)

    def __repr__(self) -> str:
        """Return ``<strategy 'name'>``."""
        return f"<strategy {self.name!r}>"


def _strategy_shard_task(items: list, compute) -> list[ConfidenceReport]:
    """One shard of :meth:`ConfidenceStrategy._map_items` (module level: pickles)."""
    return [compute(item, None if seed is None else random.Random(seed)) for item, seed in items]


# Kept for the frozen ``benchmarks/e2e`` harness, which imports these two
# names; the engine calls the strategy methods directly.
def compute_batch_with_executor(
    strategy: ConfidenceStrategy,
    dnfs: Sequence[Dnf],
    rng: random.Random,
    executor: "ShardExecutor | None",
) -> list[ConfidenceReport]:
    """``strategy.compute_batch(dnfs, rng)``, in a run scope on ``executor`` if given."""
    with _scope_on(executor):
        return strategy.compute_batch(dnfs, rng)


def compute_with_executor(
    strategy: ConfidenceStrategy,
    dnf: Dnf,
    rng: random.Random,
    executor: "ShardExecutor | None",
) -> ConfidenceReport:
    """``strategy.compute(dnf, rng)``, in a run scope on ``executor`` if given."""
    with _scope_on(executor):
        return strategy.compute(dnf, rng)


def dnf_is_read_once(dnf: Dnf) -> bool:
    """Is the disjunction read-once — no variable shared between clauses?

    A clause is a partial function, so within one clause each variable
    occurs once; the disjunction is read-once iff clauses are pairwise
    variable-disjoint, i.e. the clause sizes add up to the number of
    distinct variables.  On such instances the decomposition solver's
    independent-component factoring computes the probability in linear
    time (no Shannon branching), so exact evaluation is always cheap.
    """
    return sum(map(len, dnf.members)) == len(dnf.variables)


_REGISTRY: dict[str, type[ConfidenceStrategy]] = {}


def register_strategy(cls: type[ConfidenceStrategy]) -> type[ConfidenceStrategy]:
    """Register a strategy class under its ``name`` (decorator-friendly)."""
    if not getattr(cls, "name", None) or cls.name == "?":
        raise ValueError(f"strategy class {cls.__name__} needs a name")
    _REGISTRY[cls.name] = cls
    return cls


def strategy_names() -> tuple[str, ...]:
    """Registered strategy names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_strategy(
    spec: str | ConfidenceStrategy,
    eps: float | None = None,
    delta: float | None = None,
) -> ConfidenceStrategy:
    """Turn a name (or an instance, passed through) into a strategy.

    ``eps``/``delta`` parameterize the approximate strategies; exact
    strategies ignore both.
    """
    if isinstance(spec, ConfidenceStrategy):
        return spec
    try:
        cls = _REGISTRY[spec]
    except KeyError:
        raise UnknownStrategyError(
            f"unknown confidence strategy {spec!r}; registered: {strategy_names()}"
        ) from None
    return cls(eps=eps, delta=delta)


@register_strategy
class ExactDecomposition(ConfidenceStrategy):
    """Shannon expansion with independence factoring (Theorem 3.4 oracle)."""

    name = "exact-decomposition"
    consumes_rng = False

    def __init__(self, eps: float | None = None, delta: float | None = None):
        """Accept and ignore the registry-uniform arguments."""

    def compute(self, dnf: Dnf, rng: random.Random) -> ConfidenceReport:
        """Solve ``dnf`` exactly; draws nothing from ``rng``."""
        value = probability_by_decomposition(dnf)
        return ConfidenceReport(value, self.name, self.name, exact=True)


@register_strategy
class ExactEnumeration(ConfidenceStrategy):
    """Brute-force world enumeration — ground truth for small instances."""

    name = "exact-enumeration"
    consumes_rng = False

    def __init__(self, eps: float | None = None, delta: float | None = None):
        """Accept and ignore the registry-uniform arguments."""

    def compute(self, dnf: Dnf, rng: random.Random) -> ConfidenceReport:
        """Enumerate the worlds of ``dnf``; draws nothing from ``rng``."""
        value = probability_by_enumeration(dnf)
        return ConfidenceReport(value, self.name, self.name, exact=True)


def is_exact_solver(strategy: ConfidenceStrategy) -> bool:
    """Does ``strategy`` name one of the two Theorem 3.4 solvers?

    Asked of the *name*, never the class: delegating wrappers (tracing,
    logging) copy ``name`` and subclass neither solver.  ``cert`` and
    the ideal σ̂ run such a strategy as it is and exact decomposition in
    place of any other; ``topk`` ranks by its exact confidences instead
    of racing.
    """
    return strategy.name in (ExactDecomposition.name, ExactEnumeration.name)


@register_strategy
class KarpLuby(ConfidenceStrategy):
    """The (ε, δ) FPRAS of Proposition 4.2 / Corollary 4.3 — the paper baseline.

    :func:`repro.confidence.batch.batch_approximate_confidence` draws
    the m = ⌈3·|F|·ln(2/δ)/ε²⌉ budget in vectorized blocks.  This
    strategy always spends the paper's |F|-sized budget, whatever is
    known about the DNF; ``auto`` runs the same estimator with a budget
    sized by its enclosure instead.
    """

    name = "karp-luby"

    def __init__(self, eps: float | None = None, delta: float | None = None):
        """Fix the (ε, δ) target."""
        self.eps = DEFAULT_EPS if eps is None else eps
        self.delta = DEFAULT_DELTA if delta is None else delta

    @property
    def cache_token(self) -> tuple:
        """Name and (ε, δ)."""
        return (self.name, self.eps, self.delta)

    def compute(self, dnf: Dnf, rng: random.Random) -> ConfidenceReport:
        """Draw ``dnf``'s whole Proposition 4.2 budget from ``rng``."""
        estimate = batch_approximate_confidence(dnf, self.eps, self.delta, rng)
        return ConfidenceReport(
            estimate.estimate,
            self.name,
            self.name,
            exact=estimate.exact,
            samples=estimate.samples,
            eps=self.eps,
            delta=self.delta,
        )


@register_strategy
class NaiveMonteCarlo(ConfidenceStrategy):
    """World-sampling baseline with an additive Hoeffding guarantee only.

    The sample worlds are drawn as one block; :meth:`compute_batch` goes
    further and draws ONE shared block for the whole batch of tuples,
    evaluating every tuple's DNF against the same worlds (the per-tuple
    additive Hoeffding bound holds marginally for each tuple; estimates
    across tuples become correlated).
    """

    name = "naive-mc"

    def __init__(self, eps: float | None = None, delta: float | None = None):
        """Fix the additive (ε, δ) target."""
        self.eps = DEFAULT_EPS if eps is None else eps
        self.delta = DEFAULT_DELTA if delta is None else delta

    @property
    def cache_token(self) -> tuple:
        """Name and (ε, δ)."""
        return (self.name, self.eps, self.delta)

    def _report(self, dnf: Dnf, estimate) -> ConfidenceReport:
        exact = dnf.is_empty or dnf.is_trivially_true
        return ConfidenceReport(
            estimate.estimate,
            self.name,
            self.name,
            exact=exact,
            samples=estimate.samples,
            eps=self.eps,
            delta=self.delta,
        )

    def compute(self, dnf: Dnf, rng: random.Random) -> ConfidenceReport:
        """Estimate ``dnf`` against its own block of sampled worlds."""
        samples = naive_sample_size_additive(self.eps, self.delta)
        estimate = batch_naive_confidence(dnf, samples, rng)
        return self._report(dnf, estimate)

    def compute_batch(self, dnfs: Sequence[Dnf], rng: random.Random) -> list[ConfidenceReport]:
        """Estimate every DNF against one shared world budget, in process.

        The budget is cut into blocks by the one block plan (each still
        shared by every tuple) whose counts merge by trial-count
        weighting; the list itself is never cut, so the batch never fans
        out.
        """
        samples = naive_sample_size_additive(self.eps, self.delta)
        estimates = shared_block_confidences(dnfs, samples, rng)
        return [self._report(dnf, est) for dnf, est in zip(dnfs, estimates)]

    def fan_out_lists(self, dnfs: Sequence[Dnf]) -> tuple[int, ...]:
        """None: the shared block weighs the whole batch in process."""
        return ()


@register_strategy
class DissociationBounds(ConfidenceStrategy):
    """Guaranteed PTIME confidence intervals via oblivious/dissociation bounds.

    Never samples: each DNF gets an enclosing ``[lower, upper]`` interval
    from :func:`repro.confidence.dissociation.dissociation_interval` —
    exact (point) on read-once and mutually-exclusive disjunctions, a
    budgeted Shannon expansion with Bonferroni/Hunter base-case bounds
    otherwise.  The reported ``value`` is the interval midpoint and
    ``exact`` is set iff the interval is a point; the interval itself
    rides along in ``lower``/``upper``.  All arithmetic is exact
    Fractions, so results are worker-count-independent.
    """

    name = "dissociation-bounds"
    consumes_rng = False

    def __init__(
        self,
        eps: float | None = None,
        delta: float | None = None,
        budget: int = DEFAULT_BOUND_BUDGET,
    ):
        """Fix the Shannon-expansion ``budget``; the rest is ignored."""
        self.budget = budget

    @property
    def cache_token(self) -> tuple:
        """Name and expansion budget."""
        return (self.name, self.budget)

    def _report(self, interval) -> ConfidenceReport:
        return ConfidenceReport(
            interval.midpoint,
            self.name,
            self.name,
            exact=interval.is_exact,
            lower=interval.lower,
            upper=interval.upper,
        )

    def compute(self, dnf: Dnf, rng: random.Random) -> ConfidenceReport:
        """Enclose ``dnf``; draws nothing from ``rng``."""
        return self._report(dissociation_interval(dnf, self.budget))

    def compute_batch(self, dnfs: Sequence[Dnf], rng: random.Random) -> list[ConfidenceReport]:
        """Enclose every DNF, sharding the list over the run scope's plan.

        The plan is worker-count-independent and needs no shard entropy.
        """
        intervals = dissociation_intervals(dnfs, self.budget)
        return [self._report(interval) for interval in intervals]


@register_strategy
class AutoStrategy(ConfidenceStrategy):
    """Routing to the cheapest sound method: per plan, then per tuple.

    Step 0 happens above this class, where the plan is still in hand
    (:attr:`lifts_safe_plans`; ``UEvaluator.plan_confidences``): a
    hierarchical self-join-free plan over tuple-independent relations is
    answered extensionally (:mod:`repro.confidence.extensional`,
    ``method="extensional"``) and no DNF ever reaches :meth:`choose`.
    What does reach it is the residue — unsafe plans, relations that
    share variables or carry multi-assignment conditions, lineage with
    no plan attached — routed per tuple, in order:

    1. degenerate F (empty, trivially true, single clause) — exact, free;
    2. read-once F (:func:`dnf_is_read_once`) — exact decomposition,
       which factors into independent components in linear time;
    3. small F (|F| ≤ ``max_exact_size`` and |vars(F)| ≤
       ``max_exact_variables``) — exact decomposition stays affordable;
    4. F whose dissociation bound interval at ``bounds_budget``
       expansions is a *point* — e.g. mutually-exclusive clause sets of
       any size — the bound *is* the exact answer, no trial drawn.  The
       solve runs point-only and stops at its first open base case; F
       then gets the cheaper enclosure at
       :data:`~repro.confidence.dissociation.OPEN_BOUND_BUDGET`
       expansions (:func:`~repro.confidence.dissociation.routing_intervals`);
    5. otherwise — Karp–Luby, sized by the step-4 enclosure: with L the
       interval's lower bound and M = Σ p_f, m = ⌈3·r·ln(2/δ)/ε²⌉ for
       r = M / max(L, max_f p_f) (:func:`~repro.confidence.batch.karp_luby_ratio`)
       instead of Proposition 4.2's r = |F|.  L ≤ p, so the (ε, δ)
       guarantee is the paper's; max_f p_f ≥ M/|F|, so the budget is
       never larger.  The estimate is clipped into [L, U] (which only
       moves it towards p) and the report carries ``lower``/``upper``.

    Step 4 only fires on exact intervals: certifying against a threshold
    with a *loose* interval is the driver's job (it knows the
    predicate), not the strategy's.  Every routed computation still
    reports ``strategy="auto"`` and the concrete ``method`` chosen, so
    :meth:`ProbDB.explain` can show the decision.  The budget is an
    a-priori function of the DNF and ``bounds_budget`` — no sequential
    stopping — so sampled answers stay bit-identical across worker
    counts.
    """

    name = "auto"
    lifts_safe_plans = True

    def __init__(
        self,
        eps: float | None = None,
        delta: float | None = None,
        max_exact_size: int = 16,
        max_exact_variables: int = 24,
        bounds_budget: int = DEFAULT_BOUND_BUDGET,
    ):
        """Fix the (ε, δ) target and the routing thresholds."""
        self.eps = DEFAULT_EPS if eps is None else eps
        self.delta = DEFAULT_DELTA if delta is None else delta
        self.max_exact_size = max_exact_size
        self.max_exact_variables = max_exact_variables
        self.bounds_budget = bounds_budget
        self._exact = ExactDecomposition()

    @property
    def cache_token(self) -> tuple:
        """Name, (ε, δ) and every routing threshold."""
        return (
            self.name,
            self.eps,
            self.delta,
            self.max_exact_size,
            self.max_exact_variables,
            self.bounds_budget,
        )

    def _settled(self, dnf: Dnf) -> bool:
        """Steps 1–3 (empty and single-clause F are read-once): exact, unenclosed."""
        small = dnf.size <= self.max_exact_size and len(dnf.variables) <= self.max_exact_variables
        return dnf.is_trivially_true or dnf_is_read_once(dnf) or small

    def _routes(self, dnfs: Sequence[Dnf]) -> list[tuple[str, BoundInterval | None]]:
        """The class docstring's decision per DNF, with its step-4 enclosure.

        Steps 1–3 screen each DNF; the survivors are enclosed by one
        :func:`~repro.confidence.dissociation.routing_intervals` batch,
        which solves each distinct clause set once and cuts the list on
        the run scope's executor.  The interval is ``None`` for DNFs
        settled before step 4.
        """
        routes = [(ExactDecomposition.name, None)] * len(dnfs)
        survivors = [i for i, dnf in enumerate(dnfs) if not self._settled(dnf)]
        intervals = routing_intervals([dnfs[i] for i in survivors], self.bounds_budget)
        for i, interval in zip(survivors, intervals):
            routes[i] = (DissociationBounds.name if interval.is_exact else KarpLuby.name, interval)
        return routes

    def choose(self, dnf: Dnf) -> str:
        """Apply the class docstring's decision rule to ``dnf``."""
        return self._routes([dnf])[0][0]

    def fan_out_lists(self, dnfs: Sequence[Dnf]) -> tuple[int, ...]:
        """The exact sub-batch, the step-4 enclosures, the sampled sub-batch."""
        methods = [method for method, _ in self._routes(dnfs)]
        enclosed = len(dnfs) - methods.count(ExactDecomposition.name)
        return methods.count(ExactDecomposition.name), enclosed, methods.count(KarpLuby.name)

    def _sample(self, routed: tuple[Dnf, BoundInterval], rng: random.Random) -> ConfidenceReport:
        """Step 5 on a ``(dnf, enclosure)`` pair: sized by, and clipped into, the enclosure."""
        dnf, interval = routed
        estimate = batch_approximate_confidence(
            dnf, self.eps, self.delta, rng, lower=interval.lower
        )
        return ConfidenceReport(
            _clip(estimate.estimate, interval),
            self.name,
            KarpLuby.name,
            exact=False,
            samples=estimate.samples,
            eps=self.eps,
            delta=self.delta,
            lower=interval.lower,
            upper=interval.upper,
        )

    def _enclosed(self, interval: BoundInterval) -> ConfidenceReport:
        """Step 4's report: the point enclosure is the answer."""
        return ConfidenceReport(
            interval.lower,
            self.name,
            DissociationBounds.name,
            exact=True,
            lower=interval.lower,
            upper=interval.upper,
        )

    def compute(self, dnf: Dnf, rng: random.Random) -> ConfidenceReport:
        """Route ``dnf`` and run the chosen method on it."""
        method, interval = self._routes([dnf])[0]
        if method == KarpLuby.name:
            return self._sample((dnf, interval), rng)
        if method == DissociationBounds.name:
            return self._enclosed(interval)
        return replace(self._exact.compute(dnf, rng), strategy=self.name)

    def compute_batch(self, dnfs: Sequence[Dnf], rng: random.Random) -> list[ConfidenceReport]:
        """Route the batch per tuple, then run each method's batched path.

        The step-4 enclosures are one batch (:meth:`_routes`); all
        exact-routed tuples go through the exact strategy's (list-
        sharding) batch, all sampler-routed tuples through one sampled
        batch whose items are ``(dnf, enclosure)`` pairs, so each DNF's
        enclosure is solved once per call and all three lists fan out
        over the run scope's executor (:meth:`fan_out_lists`).  Routing
        itself is deterministic (it never samples), so the split — and
        with it every shard plan downstream — is worker-count invariant.
        """
        routes = self._routes(dnfs)
        reports: list[ConfidenceReport | None] = [None] * len(dnfs)
        exact = [i for i, (m, _) in enumerate(routes) if m == ExactDecomposition.name]
        sampled = [i for i, (m, _) in enumerate(routes) if m == KarpLuby.name]
        if exact:
            batch = self._exact.compute_batch([dnfs[i] for i in exact], rng)
            for i, report in zip(exact, batch):
                reports[i] = replace(report, strategy=self.name)
        if sampled:
            batch = self._map_items(
                self._sample, [(dnfs[i], routes[i][1]) for i in sampled], rng
            )
            for i, report in zip(sampled, batch):
                reports[i] = report
        for i, (method, interval) in enumerate(routes):
            if method == DissociationBounds.name:
                reports[i] = self._enclosed(interval)
        return reports


def _clip(value: float, interval: BoundInterval) -> Prob:
    """``value`` moved into ``interval``, as the nearest float inside it.

    Only an interval narrower than a float's spacing keeps its exact
    bound instead.
    """
    lower, upper = interval.lower, interval.upper
    if lower <= value <= upper:
        return value
    bound = lower if value < lower else upper
    nearest = float(bound)
    if nearest < lower:
        nearest = math.nextafter(nearest, math.inf)
    elif nearest > upper:
        nearest = math.nextafter(nearest, -math.inf)
    return nearest if lower <= nearest <= upper else bound
