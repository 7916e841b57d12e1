"""The :class:`ProbDB` facade — one front door for the whole system.

The paper describes a single coherent engine: an algebra whose queries
compositionally mix exact confidence (Theorem 3.4), the Karp–Luby
``conf_{ε,δ}`` (Corollary 4.3), approximate selection (Section 6), and
the Theorem 6.7 driver.  ``repro.connect(...)`` wires all of those to
one session object:

>>> import repro
>>> db = repro.connect({"Coins": coins, "Faces": faces})
>>> db.assign("R", "project[CoinType](repair-key[@ Count](Coins))")
>>> result = db.query(rel("R").conf())          # builder Q objects ...
>>> result = db.query("conf[P](R)")             # ... or parser strings
>>> print(db.explain("conf[P](R)"))             # chosen plan/strategy

A session owns one U-relational database (the W table grows across
assignments, as in Example 2.2), one RNG (seeded once — every stochastic
subroutine derives from it), one confidence strategy (see
:mod:`repro.confidence.strategies`), and one memo cache keyed on query
fingerprint and database/W versions, so repeated confidence computations
in a session are free.  Every confidence the session computes — ``conf``
/ ``cert`` / σ̂ inside a query, :meth:`ProbDB.confidence`,
``confidence_all``, per-row and top-k — is the session evaluator's
``lineage`` → ``confidences``, so they all share the strategy protocol,
the executor and the memo — after its plan-level step 0
(``plan_confidences``), which under ``auto`` answers a safe plan over
tuple-independent relations without building any lineage; every
dissociation enclosure it needs —
σ̂ certification under the driver, top-k stage 1, ``explain`` — is the
same evaluator's ``enclosures``, memoized by clause set.
"""

from __future__ import annotations

import random
import threading
import time
import weakref
from collections.abc import Mapping, Sequence
from functools import partial

from repro.algebra.builder import Q
from repro.algebra.operators import BaseRel, Conf, Query, children, output_schema, walk
from repro.algebra.parser import parse_query, parse_session
from repro.algebra.relations import Relation
from repro.confidence.dissociation import DEFAULT_BOUND_BUDGET, BoundInterval, EnclosureMemo
from repro.confidence.dnf import Dnf
from repro.confidence.extensional import EXTENSIONAL
from repro.confidence.strategies import (
    DEFAULT_DELTA,
    DEFAULT_EPS,
    ConfidenceReport,
    ConfidenceStrategy,
    is_exact_solver,
    resolve_strategy,
)
from repro.engine.cache import MemoCache, query_fingerprint
from repro.engine.plan import ExplainReport, explain_plan, topk_plan
from repro.engine.result import EngineResult
from repro.urel.columnar import ColumnarURelation
from repro.urel.evaluate import UEvaluator
from repro.urel.translate import confidence_relation
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.util.parallel import ShardExecutor, as_executor
from repro.util.rng import ensure_rng, spawn_rng
from repro.util.scope import run_scope

__all__ = ["ProbDB", "connect"]

# Concrete confidence methods whose recomputation is a pure function of
# the DNF — no trial drawn, no session entropy spent.  Entries produced
# by them are safe for a *cross-session* budget evictor to drop: a later
# identical request recomputes bit-identically without shifting the
# session's sampled stream.  Everything else (sampling methods, even on
# degenerate DNFs their batch machinery draws item seeds; third-party
# methods we cannot vouch for) is pinned as volatile.  Dissociation
# bounds qualify: exact Fraction arithmetic over the clause set, never a
# trial.  So does a lifted plan: arithmetic over the probability column
# in a canonical order.
_RECOMPUTE_PURE_METHODS = frozenset(
    {"exact-decomposition", "exact-enumeration", "dissociation-bounds", EXTENSIONAL}
)


def _report_volatile(report: ConfidenceReport) -> bool:
    return not (report.exact and report.method in _RECOMPUTE_PURE_METHODS)


def connect(
    source: "UDatabase | Mapping[str, Relation] | ProbDB",
    strategy: str | ConfidenceStrategy = "auto",
    eps: float | None = None,
    delta: float | None = None,
    rng: random.Random | int | None = None,
    copy: bool = False,
    workers: "int | ShardExecutor | None" = None,
) -> "ProbDB":
    """Open a :class:`ProbDB` session on ``source``.

    ``source`` may be a :class:`UDatabase`, a mapping of names to
    complete :class:`Relation` objects (lifted with every relation
    marked complete), or another session (reuses its database).
    ``strategy`` names the confidence strategy (default ``auto``);
    ``eps``/``delta`` parameterize its approximate methods; ``rng``
    seeds every stochastic subroutine of the session.  With ``copy``
    the session works on a private copy of the database.

    Confidence batches, σ̂ candidate decisions and top-k rounds are
    fan-out lists cut into shards (:mod:`repro.util.parallel`); each
    item draws from a stream seeded by its position, and the relational
    algebra and every Monte-Carlo trial budget run in the process that
    owns them.  ``workers`` only sets how many processes run the
    shards — results are *bit-identical for every worker count and
    shard plan*.  Omitted, it is the ``REPRO_WORKERS`` environment
    variable or ``1`` (the shards run serially, in process).  Pass a
    :class:`~repro.util.parallel.ShardExecutor` instance instead of an
    int to cut lists more finely or to share one pool across
    sessions.

    Example::

        import repro

        db = repro.connect(
            {"R": repro.Relation.from_rows(("A",), [(1,), (2,)])},
            rng=0,
        )
        result = db.query("select[A = 1](R)")
        report = result.confidence((1,))    # exact Fraction(1) — R is complete
        db.close()                          # or: with repro.connect(...) as db
    """
    return ProbDB(
        source,
        strategy=strategy,
        eps=eps,
        delta=delta,
        rng=rng,
        copy=copy,
        workers=workers,
    )


class _SessionEnclosures(EnclosureMemo):
    """One request's run memo on a session, in front of its cache.

    The content key ``("bounds", clause set, budget)`` names no W
    version: W only grows and a distribution is immutable once added, so
    the key pins the interval of every disjunction whose variables all
    live in the *session's* W.  A driver or ``explain`` run works on a
    private copy, though, where a repair-key below the σ̂ mints
    variables the session never sees — and their distributions follow
    relation data that ``assign`` can replace without touching
    ``w.version``.  Such an enclosure stays in the run memo and dies
    with it; everything else goes to the session cache, non-volatile
    (nothing is drawn, so an evicted entry recomputes identically).
    """

    def __init__(self, engine: "ProbDB"):
        super().__init__()
        self._cache = engine._cache
        self._w = engine.db.w

    def _shared_get(self, key: tuple) -> BoundInterval | None:
        return self._cache.get(key)

    def _shared_put(self, key: tuple, dnf: Dnf, interval: BoundInterval) -> None:
        if all(var in self._w for var in dnf.variables):
            self._cache.put(key, interval)


class _EngineEvaluator(UEvaluator):
    """The session's evaluator: the session's *current* strategy, and its memo.

    Only its session holds it, and it holds the session weakly: a session
    nobody holds is freed at once, memo and all, not at the next cyclic
    collection.
    """

    def __init__(self, engine: "ProbDB"):
        self.engine = weakref.proxy(engine)
        super().__init__(engine.db, rng=engine.rng, copy_db=False)

    @property
    def strategy(self) -> ConfidenceStrategy:
        """Read through, never copied: ``db.strategy`` is assignable."""
        return self.engine.strategy

    def confidences(self, dnfs, strategy=None) -> list[ConfidenceReport]:
        """Memoized DNFs from the session cache, the misses in one batch.

        Only the misses go to the strategy's ``compute_batch``, which
        draws their trials as shared/vectorized blocks instead of N
        independent sampler runs.
        """
        engine = self.engine
        cache = engine._cache
        if not cache.enabled:
            return super().confidences(dnfs, strategy)
        chosen = self.strategy if strategy is None else strategy
        keys = [engine._conf_cache_key(dnf, chosen) for dnf in dnfs]
        reports = [cache.get(key) for key in keys]
        # Distinct tuples often share one condition set (same cache key);
        # each distinct DNF is computed once per batch.
        misses: dict[tuple, int] = {}
        for i, key in enumerate(keys):
            if reports[i] is None:
                misses.setdefault(key, i)
        if misses:
            fresh = super().confidences([dnfs[i] for i in misses.values()], chosen)
            by_key = dict(zip(misses, fresh))
            for key, report in by_key.items():
                # Sampled reports are volatile: a recompute would consume
                # session RNG state, so the cross-session budget evictor
                # must not remove them (exact reports recompute
                # identically and draw nothing — freely evictable).
                cache.put(key, report, volatile=_report_volatile(report))
            reports = [
                by_key[key] if report is None else report for key, report in zip(keys, reports)
            ]
        return reports

    def _plan_reports(self, query, plan, strategy) -> dict[tuple, ConfidenceReport] | None:
        """A lifted plan's reports: one memo entry per plan, not one per tuple.

        Asked only after both screens passed, so a plan that is not
        lifted never touches the cache.  The key names the database and
        W versions — ``assign`` replacing a relation or a repair-key
        growing W retires the entry — and the caller must not mutate the
        mapping it gets.
        """
        engine = self.engine
        cache = engine._cache
        if not cache.enabled:
            return super()._plan_reports(query, plan, strategy)
        key = (
            "lifted",
            query_fingerprint(query),
            strategy.name,
            engine.db.version,
            engine.db.w.version,
        )
        reports = cache.get(key)
        if reports is None:
            reports = super()._plan_reports(query, plan, strategy)
            if reports is not None:
                cache.put(key, reports, volatile=any(map(_report_volatile, reports.values())))
        return reports


class ProbDB:
    """A probabilistic-database session: data, strategy, RNG, cache.

    Usually constructed via :func:`repro.connect`.  The session owns a
    U-relational database, a confidence strategy, one seeded RNG that
    every stochastic subroutine derives from (same seed + same request
    sequence = bit-identical answers), a per-session memo cache, and
    one :class:`~repro.util.parallel.ShardExecutor` (``db.executor`` —
    always set; ``workers`` only sizes the pool, and answers never
    depend on it).

    The public surface, in the order a session typically uses it::

        db = repro.connect(source, rng=7)
        db.assign("R", "repair-key[@ Count](Coins)")   # name := query
        db.query(q)                  # evaluate (EngineResult)
        db.confidence(q)             # conf of every result tuple
        db.confidence_all(q)         # {data tuple: ConfidenceReport}, batched
        db.evaluate_with_guarantee(q, delta=0.05, eps0=0.1)   # Thm 6.7 driver
        db.explain(q)                # the plan, with per-operator methods
        db.close()                   # or use the session as a context manager

    Queries are surface-syntax strings or ``repro.rel(...)`` builder
    objects throughout.
    """

    # Kept for the frozen ``benchmarks/e2e`` harness, which passes it on
    # to ``repro.core.driver.evaluate_with_guarantee``.
    backend = "numpy"

    def __init__(
        self,
        source: "UDatabase | Mapping[str, Relation] | ProbDB",
        strategy: str | ConfidenceStrategy = "auto",
        eps: float | None = None,
        delta: float | None = None,
        rng: random.Random | int | None = None,
        copy: bool = False,
        cache_size: int | None = 1024,
        workers: "int | ShardExecutor | None" = None,
    ):
        self.db = self._coerce(source, copy)
        # The facade's single ensure_rng call site: every stochastic
        # component below (Karp–Luby conf, aconf, the driver) draws from
        # streams derived from this one generator.
        self._rng = ensure_rng(rng)
        self._eps = eps
        self._delta = delta
        self.strategy = resolve_strategy(strategy, eps=eps, delta=delta)
        # The session's one fan-out primitive.  The pool itself is lazy —
        # sessions that never fan a workload out never start one.  An existing
        # ShardExecutor is accepted as-is but *borrowed* (custom plan
        # parameters, or a pool shared across sessions): :meth:`close`
        # only tears down executors the session constructed itself, so
        # closing one sharing session cannot silently degrade the others
        # to serial.
        self.executor, self._owns_executor = as_executor(workers)
        self._cache = MemoCache(cache_size)
        # close() must be idempotent and safe to race from many threads
        # (an async server closes sessions while sibling requests are in
        # flight); the flag records intent, the lock makes first-close
        # win exactly once.
        self._close_lock = threading.Lock()
        self._closed = False
        # Parsed query texts are cached so a repeated string is the *same*
        # plan (same repair-key op_ids → same random variables, and memo
        # cache keys that can actually repeat).
        self._parse_cache: dict[str, Query] = {}
        self._evaluator = _EngineEvaluator(self)

    @staticmethod
    def _coerce(source, copy: bool) -> UDatabase:
        if isinstance(source, ProbDB):
            source = source.db
        if isinstance(source, UDatabase):
            return source.copy() if copy else source
        if isinstance(source, Mapping):
            lifted = {
                name: rel if isinstance(rel, Relation) else Relation.from_rows(*rel)
                for name, rel in source.items()
            }
            return UDatabase.from_complete(lifted)
        raise TypeError(
            f"cannot connect to {type(source).__name__}; expected UDatabase, "
            f"mapping of Relations, or ProbDB"
        )

    # ------------------------------------------------------------ queries
    def _resolve(self, query: "Query | Q | str") -> tuple[Query, str | None]:
        """Accept builder ``Q`` objects, AST nodes, and parser strings."""
        if isinstance(query, str):
            text = query.strip()
            node = self._parse_cache.get(text)
            if node is None:
                node = BaseRel(text) if text in self.db.relations else parse_query(text)
                self._parse_cache[text] = node
            return node, text
        if isinstance(query, Q):
            return query.q, None
        if isinstance(query, Query):
            return query, None
        raise TypeError(f"cannot interpret query of type {type(query).__name__}")

    def query(self, query: "Query | Q | str") -> EngineResult:
        """Evaluate a query (without storing its result).

        Accepts surface syntax or the ``repro.rel`` builder::

            db.query("select[CoinType = 'fair'](Coins)")
            db.query(repro.rel("Coins").select(repro.col("CoinType") == "fair"))

        Step 0 of the conf seam is asked first: where it answers, nothing
        is evaluated until the result's ``relation`` is first used.
        """
        node, source = self._resolve(query)
        started = time.perf_counter()
        with self._scope():
            answers, columns = self._evaluator.plan_confidences(node), None
            if answers is None:
                relation, complete = self._evaluate(node)
            else:  # a lifted plan reads base relations only: they are its leaves
                bases = {n.name: self.db.relation(n.name) for n in walk(node) if not children(n)}
                columns = output_schema(node, {name: base.columns for name, base in bases.items()})
                complete = all(self.db.is_complete(name) for name in bases)
                relation = partial(self._relation_of, node, bases, self.db.version)
        elapsed = time.perf_counter() - started
        return EngineResult(relation, complete, node, self, elapsed, source, answers, columns)

    def _scope(self, bounds_budget: int | None = None):
        """The run scope of one request: the session executor and a fresh
        run memo in front of the session cache (:mod:`repro.util.scope`)."""
        return run_scope(self.executor, bounds_budget, _SessionEnclosures(self))

    def _evaluate(self, node: Query) -> tuple[URelation | ColumnarURelation, bool]:
        """``node``'s result and completeness, through the ``("query", …)`` memo.

        The result is what the evaluator produced: a columnar one stays
        coded until its relation is first asked for (``to_urelation()``
        keeps the decode on it, so a memo hit reuses it)."""
        if not self._cache.enabled:
            return self._evaluator.eval_rep(node)
        fingerprint = query_fingerprint(node)
        cached = self._cache.get(self._query_key(fingerprint))
        if cached is None:
            # A query whose evaluation *drew* from the session RNG
            # (a sampled conf operator missing the conf cache) is
            # volatile: recomputing it after a cross-session budget
            # eviction would redraw from a later stream position, so
            # the global evictor must leave it alone.  Comparing RNG
            # state before/after captures exactly "did this draw".
            rng_before = self._rng.getstate()
            cached = self._evaluator.eval_rep(node)
            # Key on the *post*-evaluation versions: a repair-key query
            # extends W on its first run but is idempotent afterwards
            # (``ensure`` + fixed op_ids), so the next identical call
            # sees exactly these versions and hits.
            self._cache.put(
                self._query_key(fingerprint), cached, volatile=self._rng.getstate() != rng_before
            )
        return cached

    def _query_key(self, fingerprint: str) -> tuple:
        return ("query", fingerprint, self.strategy.cache_token, self.db.version, self.db.w.version)

    def _regrown(self, node: Query) -> None:
        """A columnar result of ``node`` built a lazy part: size its memo entry again."""
        if self._cache.enabled:
            self._cache.resize(self._query_key(query_fingerprint(node)))

    def _relation_of(self, node: Query, bases: dict[str, URelation], version: int) -> URelation:
        """A lifted query's relation: through the memo while ``db.version`` is
        ``version``, else over the ``bases`` it read then (W only grows).
        Read after :meth:`query` returned, so it opens its own run scope."""
        with self._scope():
            if self.db.version == version:
                return self._evaluator._materialize(self._evaluate(node)[0])
            db = UDatabase(bases, self.db.w, condition_pool=self.db.condition_pool)
            return UEvaluator(db, copy_db=False).eval(node)[0]

    def assign(self, name: str, query: "Query | Q | str") -> EngineResult:
        """``name := query`` — evaluate and store (Example 2.2 session style).

        The stored relation is queryable by name from then on::

            db.assign("R", "repair-key[@ Count](Coins)")   # draw a coin
            db.query("project[CoinType](R)")
        """
        node, source = self._resolve(query)
        started = time.perf_counter()
        with self._scope():
            rep, complete = self._evaluate(node)
            relation = self._evaluator._materialize(rep)
        self.db.set_relation(name, relation, complete=complete)
        return EngineResult(relation, complete, node, self, time.perf_counter() - started, source)

    def run_script(self, script: str) -> dict[str, EngineResult]:
        """Run a ``Name := query;`` script; returns the named results in order.

        Like the database state itself, a name assigned twice keeps its
        *latest* result in the returned mapping (every assignment still
        executes).

        Example::

            results = db.run_script('''
                R := repair-key[@ Count](Coins);
                T := project[CoinType](R);
            ''')
            results["T"].rows
        """
        return {
            name: self.assign(name, node) for name, node in parse_session(script)
        }

    def confidence(
        self,
        query: "Query | Q | str",
        p_name: str = "P",
        strategy: str | ConfidenceStrategy | None = None,
    ) -> EngineResult:
        """``conf`` of a query's result: ⟨t, Pr[t ∈ result]⟩ per possible tuple.

        Uses the session strategy unless ``strategy`` overrides it::

            u = db.confidence("project[CoinType](R)")          # columns + P
            u = db.confidence("R", strategy="karp-luby")       # force the FPRAS
        """
        node, source = self._resolve(query)
        with self._scope():
            inner = self.query(node)
            started = time.perf_counter()
            reports = self._all_confidences(inner, self._override(strategy))
        values = [report.value for report in reports.values()]
        relation = confidence_relation(inner.columns, p_name, list(reports), values)
        elapsed = time.perf_counter() - started
        # The result's plan is the conf *of* the query: what its rows are
        # tuples of, and so what a later step 0 on it would have to lift.
        plan = Conf(node, p_name)
        return EngineResult(relation, True, plan, self, inner.elapsed + elapsed, source)

    def evaluate_with_guarantee(
        self,
        query: "Query | Q | str",
        delta: float,
        eps0: float,
        rng: random.Random | int | None = None,
        initial_rounds: int = 1,
        max_rounds: int | None = None,
        epsilon_method: str = "auto",
        bounds_budget: int | None = DEFAULT_BOUND_BUDGET,
    ):
        """The Theorem 6.7 driver on this session's database.

        Returns a :class:`repro.core.driver.DriverReport`; the driver
        works on a private copy of the database, on the session's shard
        ``executor``.  ``rng`` defaults to a stream derived from the
        session seed; ``initial_rounds``, ``max_rounds`` and
        ``epsilon_method`` are the driver's
        (:func:`repro.core.driver.evaluate_with_guarantee`).

        Dissociation bound pruning is ON by default: σ̂ candidates whose
        guaranteed bound intervals already decide the predicate are
        certified with error 0 before any sampling budget is allocated
        (``DriverReport.bounds_certified`` counts them).  Pass
        ``bounds_budget=0`` (or ``None``) to disable, or another Shannon-expansion
        budget to tune how hard the bound solver tries (see
        :mod:`repro.confidence.dissociation`).  Each candidate's
        enclosure is solved once — not once per doubling of l — and the
        session keeps it: a later run at another seed or δ, a
        :meth:`topk` or an :meth:`explain` over the same tuples finds it
        solved (``DriverReport.bounds_computed`` counts what this run
        still had to solve).  Example::

            report = db.evaluate_with_guarantee(
                "aselect[P > 0.3 ; conf(A) as P](R)", delta=0.05, eps0=0.1
            )
            report.bounds_certified   # candidates decided without trials
        """
        from repro.core.driver import _run_doubling

        node, _source = self._resolve(query)
        with self._scope(0 if bounds_budget is None else bounds_budget):
            generator = spawn_rng(self._rng) if rng is None else ensure_rng(rng)
            return _run_doubling(
                node, self.db, delta, eps0, generator, initial_rounds, max_rounds, epsilon_method
            )

    def topk(
        self,
        query: "Query | Q | str",
        k: int,
        eps: float | None = None,
        delta: float | None = None,
        bounds_budget: int = DEFAULT_BOUND_BUDGET,
    ):
        """The k most probable result tuples, by confidence-interval racing.

        Returns a :class:`repro.core.topk.TopKReport` whose ``entries``
        are the ranked answers (most probable first, ties broken by the
        deterministic candidate order).  Candidates whose dissociation
        bound enclosure already clears or misses the k-th boundary are
        decided with zero trials and error 0; only candidates whose
        Lemma 5.1 intervals still overlap the running k-th threshold
        keep drawing trials, so a wide selection costs a fraction of a
        full :meth:`confidence_all` at the same (ε, δ)::

            report = db.topk("project[CoinType](R)", 10)
            report.rows              # the ranked data tuples
            report.bounds_decided    # candidates settled without sampling

        ``eps``/``delta`` default to the session's accuracy targets; an
        exact session strategy routes to exact confidence computation
        instead (error 0, nothing sampled), and so does a plan ``auto``
        answers extensionally (entries say ``source="exact"``).  Results
        are memoized like queries and bit-identical for every worker
        count.
        """
        node, _source = self._resolve(query)
        if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        eps_v = (DEFAULT_EPS if self._eps is None else self._eps) if eps is None else eps
        delta_v = (
            (DEFAULT_DELTA if self._delta is None else self._delta)
            if delta is None
            else delta
        )
        with self._scope(0 if bounds_budget is None else bounds_budget) as scope:
            result = self.query(node)
            if not self._cache.enabled:
                return self._topk_compute(result, k, eps_v, delta_v)
            key = (
                "topk",
                query_fingerprint(node),
                k,
                eps_v,
                delta_v,
                scope.bounds_budget,
                self.strategy.cache_token,
                self.db.version,
                self.db.w.version,
            )
            cached = self._cache.get(key)
            if cached is None:
                # A race that sampled consumed session RNG: volatile, the
                # cross-session evictor must leave it alone (same rule as
                # sampled query evaluations).
                rng_before = self._rng.getstate()
                cached = self._topk_compute(result, k, eps_v, delta_v)
                self._cache.put(key, cached, volatile=self._rng.getstate() != rng_before)
        return cached

    def _topk_compute(self, result: EngineResult, k, eps, delta):
        from repro.core.topk import _race, rank_exact

        # Exact values need no race — no trials, error 0, and the memo
        # entry is freely evictable.  Two ways to have them: the plan
        # lifts (step 0: not a DNF built), or the session's strategy is
        # an exact solver and owes exact answers.
        lifted = result._answered()
        if lifted is not None:
            return rank_exact(
                list(lifted), [report.value for report in lifted.values()], k, eps, delta
            )
        rows, dnfs = result._lineage()
        if is_exact_solver(self.strategy):
            reports = self._evaluator.confidences(dnfs)
            return rank_exact(rows, [report.value for report in reports], k, eps, delta)
        return _race(rows, dnfs, k, eps, delta, self._rng)

    def explain(self, query: "Query | Q | str") -> ExplainReport:
        """The plan for ``query``, with the strategy chosen per conf operator.

        Runs the confidence sub-plans against a throwaway copy of the
        database (``EXPLAIN ANALYZE`` style), so ``auto`` decisions are
        reported from the DNFs the operators will actually face.

        ``print(db.explain(q))`` renders the annotated plan tree (see
        ``docs/strategies.md`` for the annotation glossary)::

            print(db.explain("conf[P](T)"))
        """
        node, _source = self._resolve(query)
        with self._scope():
            return explain_plan(node, self._scratch_evaluator(), self.strategy)

    def _scratch_evaluator(self) -> UEvaluator:
        # Fixed-seed scratch RNG on a throwaway copy: explain only
        # *chooses* methods (never samples for answers), and a read-only
        # introspection call must not perturb the session generator or
        # later stochastic results.  It runs in the session's run scope
        # — the session's pool serves its confidence fan-outs, and
        # close() tears it down once — whose memo sits in front of
        # the session cache, so what explain encloses the next top-k or
        # driver run finds solved (and the other way round).
        return UEvaluator(self.db, strategy=self.strategy, rng=random.Random(0), copy_db=True)

    def explain_topk(self, query: "Query | Q | str", k: int) -> ExplainReport:
        """The plan for ``topk(query, k)``, with the stage-1 pruning census.

        Like :meth:`explain`, runs against a throwaway copy with a
        fixed-seed scratch RNG; the root node is annotated
        ``topk[k]·bounds-pruned[m/n]`` — m of the n candidates are
        decided by their dissociation enclosures before any sampling::

            print(db.explain_topk("project[CoinType](R)", 2))
        """
        node, _source = self._resolve(query)
        if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        with self._scope():
            return topk_plan(node, self._scratch_evaluator(), self.strategy, k)

    # ------------------------------------------------------------ confidence internals
    def tuple_confidence(self, relation: URelation, row: Sequence) -> ConfidenceReport:
        """Confidence of one data tuple of ``relation``, cached per session.

        The row-level primitive behind :meth:`EngineResult.confidence`::

            result = db.query("project[CoinType](R)")
            db.tuple_confidence(result.relation, ("fair",))
        """
        return self.relation_confidences(relation, [tuple(row)])[0]

    def _override(self, strategy: str | ConfidenceStrategy | None) -> ConfidenceStrategy | None:
        """A per-call ``strategy=`` as an object; ``None`` stays the session's."""
        if strategy is None:
            return None
        return resolve_strategy(strategy, eps=self._eps, delta=self._delta)

    def _conf_cache_key(self, dnf: Dnf, strategy: ConfidenceStrategy) -> tuple:
        return ("conf", frozenset(dnf.members), self.db.w.version, strategy.cache_token)

    def confidence_all(
        self,
        query: "Query | Q | str",
        strategy: str | ConfidenceStrategy | None = None,
    ) -> dict[tuple, ConfidenceReport]:
        """Pr[t ∈ result] for EVERY possible tuple, in one batched pass.

        Where ``result.confidence(row)`` runs one sampler per call,
        this evaluates the query once, builds every tuple's DNF, and
        hands the whole batch to the strategy — sampling strategies then
        draw trials as vectorized blocks (and, for naive MC, evaluate
        all tuples against one shared block of worlds).  Under ``auto``
        a safe plan over tuple-independent relations skips the DNFs
        altogether (``report.method == "extensional"``).  Returns a
        mapping from data tuple to its :class:`ConfidenceReport`::

            for row, report in sorted(db.confidence_all("T").items()):
                print(row, report.value, report.exact)
        """
        with self._scope():
            return self._all_confidences(self.query(query), self._override(strategy))

    def _all_confidences(self, result: EngineResult, override) -> dict[tuple, ConfidenceReport]:
        """``result``'s reports: step 0's where they serve, else its lineage in one batch."""
        lifted = result._answered(override)
        if lifted is not None:
            return dict(lifted)
        rows, dnfs = result._lineage()
        return dict(zip(rows, self._evaluator.confidences(dnfs, override)))

    def relation_confidences(
        self, relation: URelation | ColumnarURelation, rows: Sequence[tuple]
    ) -> list[ConfidenceReport]:
        """Batched confidences for the given data tuples of ``relation``
        (scalar or columnar).

        The batch primitive behind :meth:`EngineResult.confidences` —
        reports come back in ``rows`` order::

            db.relation_confidences(result.relation, result.rows)
        """
        with self._scope():
            return self._evaluator.confidences(self._evaluator.lineage(relation, rows)[1])

    # ------------------------------------------------------------ introspection
    def relation(self, name: str) -> URelation:
        """The stored U-relation named ``name`` (raises on unknown names)."""
        return self.db.relation(name)

    @property
    def relation_names(self) -> frozenset[str]:
        """Names of every stored relation, base and assigned alike."""
        return self.db.relation_names

    @property
    def w(self):
        """The session's W table of random variables."""
        return self.db.w

    @property
    def rng(self) -> random.Random:
        """The session RNG — sole randomness source for sampled strategies."""
        return self._rng

    @property
    def cache_stats(self) -> dict[str, int]:
        """Memo-cache ``hits``, ``misses``, ``entries``, ``approx_bytes`` (one snapshot)."""
        return self._cache.snapshot()

    def clear_cache(self) -> None:
        """Drop every memo-cache entry (confidence and query results)."""
        self._cache.clear()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (the session still answers queries)."""
        return self._closed

    def close(self) -> None:
        """Release the session's worker pool (if it started one).

        One executor serves every confidence/driver fan-out, so this
        tears down one pool, once.
        A *borrowed* executor (a ``ShardExecutor`` instance passed to
        ``connect``, possibly shared with other sessions) is left
        running: its creator owns the lifecycle — which is also what
        makes close *safe under concurrency*: a server can close one
        session while sibling sessions sharing the borrowed pool have
        requests in flight, and those requests keep their parallelism.
        The session stays usable either way — sharded workloads simply
        run their (identical) serial path after an owned pool is gone.

        Idempotent and thread-safe: any number of racing ``close`` calls
        (double-close, close-while-request-in-flight) tear the owned
        pool down exactly once and never raise.  Garbage collection also
        reclaims owned pools, so calling this is a courtesy, not a duty.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._owns_executor:
            self.executor.close()

    async def aclose(self) -> None:
        """Async-friendly :meth:`close` for event-loop callers.

        A thin wrapper that runs the (potentially pool-joining) close in
        a worker thread so the event loop never blocks on process
        teardown; same idempotence and thread-safety guarantees.
        """
        import asyncio

        await asyncio.to_thread(self.close)

    def __enter__(self) -> "ProbDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def worlds(self, max_worlds: int = 1_000_000):
        """Unfold the session database into its possible worlds."""
        from repro.urel.enumerate import enumerate_worlds

        return enumerate_worlds(self.db, max_worlds=max_worlds)

    def __repr__(self) -> str:
        return (
            f"ProbDB({sorted(self.db.relation_names)}, strategy={self.strategy.name!r}, "
            f"{len(self.db.w)} vars)"
        )
