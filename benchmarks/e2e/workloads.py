"""The five workloads: seeded inputs, user-path ops, output checks, replays.

Every timed op goes through ``repro.connect`` or ``repro.serve`` +
``Client`` with the defaults a user gets (``strategy="auto"``, default
backend, ``workers=None`` unless the workload says otherwise).  Inputs
are drawn from ``random.Random(seed)`` in this file; the engine sees
only the generated databases and a per-op ``rng=op_index``.

Each workload also knows how to *replay* its op as a chain of public
layer calls inside :class:`tracing.Tracer` spans — that is where the
per-layer numbers of a traced pass come from (see ``README.md`` for
which layer metric is expected to move which end-to-end metric).
"""

from __future__ import annotations

import asyncio
import collections
import gc
import math
import random
import time
from fractions import Fraction

import numpy as np

import repro
from repro.algebra.builder import query, rel
from repro.algebra.expressions import col, lit
from repro.algebra.operators import BaseRel, walk
from repro.confidence.batch import BatchKarpLubySampler, batch_approximate_confidence
from repro.confidence.dissociation import DEFAULT_BOUND_BUDGET, dissociation_intervals
from repro.confidence.dnf import Dnf
from repro.confidence.exact import probability_by_decomposition
from repro.core.driver import evaluate_with_guarantee
from repro.core.topk import race_topk
from repro.engine.cache import approx_size
from repro.engine.strategies import resolve_strategy
from repro.generators.tpdb import add_tuple_independent
from repro.server import Client, ServerError, serve
from repro.urel.columnar import ColumnarContext
from repro.urel.conditions import Condition
from repro.urel.evaluate import UEvaluator
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable

from tracing import TimedClient, TimedExecutor, TracedStrategy, Tracer

__all__ = ["WORKLOADS", "Measurement"]

WARMUP_OPS = 2
_WARMUP_BASE = 1_000_000  # op indices of the warm-up ops (never timed ones)


class Measurement:
    """What one measured window produced."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.counters: collections.Counter = collections.Counter()


class Workload:
    """One workload: generate → open → ops, with a check per op."""

    name = "?"
    latency_by_op: dict[str, list[float]] | None = None  # serve_mixed's traced window

    def __init__(self, seed: int, smoke: bool = False, corrupt: bool = False):
        self.seed = seed
        self.smoke = smoke
        # The smoke test's fault injection: every expected value is shifted,
        # so every check must fail.
        self.corrupt = 0.5 if corrupt else 0.0
        # Side of the hard bipartite 2-DNFs; the smoke size is solved
        # exactly by the bound solver, so nothing is sampled there.
        self.side = 6 if smoke else 12

    # -- set-up (timed as setup_s) ---------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def open(self) -> None:
        """Connect / serve / open sessions (per-op sessions: nothing)."""

    def warm_up(self) -> None:
        for k in range(WARMUP_OPS):
            self.op(_WARMUP_BASE + k)

    # -- ground truth (untimed) ------------------------------------------
    def prepare_checks(self) -> None:
        """Compute whatever :meth:`check` compares against."""

    # -- the measured loop -----------------------------------------------
    def op(self, index: int):
        raise NotImplementedError

    def check(self, index: int, result) -> bool:
        raise NotImplementedError

    def work(self, result) -> dict[str, float]:
        """Deterministic work counters read off an op's public result."""
        return {}

    def measure(self, n_ops: int) -> Measurement:
        """Closed loop, one client: ``n_ops`` ops back to back."""
        out = Measurement()
        for index in range(n_ops):
            gc.collect()  # outside the timer; GC stays enabled inside it
            started = time.perf_counter()
            result = self.op(index)
            elapsed = time.perf_counter() - started
            out.attempted += 1
            if self.check(index, result):
                out.latencies.append(elapsed)
                out.wall_s += elapsed
                out.counters.update(self.work(result))
            else:
                out.failed += 1
        return out

    # -- the traced loop ---------------------------------------------------
    def traced_op(self, index: int, tracer: Tracer):
        raise NotImplementedError

    def measure_traced(self, n_ops: int, tracer: Tracer) -> Measurement:
        out = Measurement()
        for index in range(n_ops):
            gc.collect()
            tracer.op_id = index
            result = self.traced_op(index, tracer)
            out.attempted += 1
            if not self.check(index, result):
                out.failed += 1
        op_spans = [s for s in tracer.spans if s["name"] == "op"]
        out.latencies = [s["end"] - s["start"] for s in op_spans]
        out.wall_s = sum(out.latencies)
        return out

    def close(self) -> None:
        """Release sessions, servers and pools."""


# --------------------------------------------------------------------------
# Shared pieces
# --------------------------------------------------------------------------


def _near(value, expected, tolerance: float = 1e-9) -> bool:
    return abs(float(value) - float(expected)) <= tolerance


BIPARTITE_OFFSETS = (0, 1, 2, 3, 5)


def _bipartite_clauses(rng: random.Random, w: VariableTable, tag: str, side: int):
    """A private 5-regular bipartite monotone 2-DNF ⋁ xᵢ∧yⱼ (60 clauses at side 12).

    The graph is a circulant (xᵢ is joined to y_{π(i+d)} for the five
    offsets d), so |F| — and with it the Prop. 4.2 trial budget — and the
    shape the Shannon expansions see are the same for every tuple and
    every seed; the seed draws the relabelling π and the variable
    probabilities.  The bound solver does not crack this shape (lower
    bound ≤ 0.65·P over the seeds tried), while its upper bound is
    within 2 % of P.  Returns the clauses and the exact probability.
    """
    px = [round(rng.uniform(0.2, 0.6), 3) for _ in range(side)]
    py = [round(rng.uniform(0.2, 0.6), 3) for _ in range(side)]
    for i, p in enumerate(px):
        w.add((tag, "x", i), {1: p, 0: 1 - p})
    for j, p in enumerate(py):
        w.add((tag, "y", j), {1: p, 0: 1 - p})
    relabel = list(range(side))
    rng.shuffle(relabel)
    edges = sorted((i, relabel[(i + d) % side]) for i in range(side) for d in BIPARTITE_OFFSETS)
    clauses = [{(tag, "x", i): 1, (tag, "y", j): 1} for i, j in edges]
    return clauses, _bipartite_probability(px, py, edges)


def _bipartite_probability(px, py, edges) -> float:
    """P(⋁ xᵢ∧yⱼ) by summing over the 2^|x| assignments of one side.

    The harness's own ground truth — independent of every solver under
    ``src/`` — so it stays valid when those change:
    P = 1 − Σ_X Pr[X] · ∏ⱼ (1 − qⱼ·[yⱼ has a neighbour in X]).
    """
    side = len(px)
    masks = np.arange(1 << side, dtype=np.int64)
    pr_x = np.ones(masks.shape[0])
    for i, p in enumerate(px):
        bit = (masks >> i) & 1
        pr_x *= np.where(bit == 1, p, 1 - p)
    none = np.ones(masks.shape[0])
    for j, q in enumerate(py):
        neighbours = sum(1 << i for i, jj in edges if jj == j)
        none *= np.where((masks & neighbours) != 0, 1 - q, 1.0)
    return float(1.0 - (pr_x * none).sum())


def _base_rows(udb: UDatabase, node) -> tuple[list[URelation], int]:
    relations = [udb.relation(q.name) for q in walk(node) if isinstance(q, BaseRel)]
    return relations, sum(len(r.rows) for r in relations)


def _replay_confidence(tracer, udb, node, reports, strategy, op_index, eps, delta):
    """Replay ``query → DNFs → confidences`` as public layer calls.

    Direct children of the ``replay`` span are the steps the facade runs
    in sequence for this op; their sum against the untraced latency is
    ``harness.trace_coverage``.  ``reports`` (from the real op) tells
    which method each tuple was routed to.
    """
    relations, rows_in = _base_rows(udb, node)
    tracer.count("urel.rows_in", rows_in)
    gc.collect()  # as before every op: the replay must not inherit the op's garbage
    with tracer.span("replay"):
        with tracer.span("urel.eval"):
            relation = UEvaluator(udb, copy_db=False).evaluate(node).relation
        rows = relation.possible_tuples().sorted_rows()
        with tracer.span("confidence.dnf_build"):
            dnfs = [Dnf.for_tuple(relation, row, udb.w) for row in rows]
        # The session computes each distinct clause set once per batch.
        distinct: dict[frozenset, tuple[Dnf, object]] = {}
        for row, dnf in zip(rows, dnfs):
            distinct.setdefault(frozenset(dnf.members), (dnf, reports[row]))
        beyond_exact = [
            dnf for dnf, report in distinct.values() if report.method != "exact-decomposition"
        ]
        with tracer.span("confidence.bounds"):
            # auto's routing computes the enclosure of every DNF it will
            # not solve exactly (memoized on the Dnf, reused below).
            intervals = dissociation_intervals(beyond_exact, DEFAULT_BOUND_BUDGET)
        with tracer.span("engine.route"):
            for dnf, _report in distinct.values():
                strategy.choose(dnf)
        with tracer.span("confidence.exact"):
            for dnf, report in distinct.values():
                if report.method == "exact-decomposition":
                    probability_by_decomposition(dnf)
        with tracer.span("confidence.trials"):
            rng = random.Random(op_index)
            for dnf, report in distinct.values():
                if report.method == "karp-luby":
                    batch_approximate_confidence(dnf, eps, delta, rng)
        with tracer.span("engine.cache_sizing"):
            # What MemoCache.put sizes: the query entry, then one
            # ("conf", clause set, W version, token) → report per DNF.
            approx_size(("query", "0" * 64, strategy.cache_token, 0, 0))
            approx_size((relation, False))
            for members, (_dnf, report) in distinct.items():
                approx_size(("conf", members, 0, strategy.cache_token))
                approx_size(report)
    tracer.count("urel.rows_out", len(relation.rows))
    tracer.count("confidence.dnfs_built", len(dnfs))
    tracer.count("confidence.dnf_clauses", sum(d.size for d in dnfs))
    tracer.count("confidence.bounds_computed", len(intervals))
    tracer.count("confidence.bounds_exact", sum(1 for iv in intervals if iv.is_exact))
    _probe_columnar(tracer, udb, relations, relation)


def _probe_columnar(tracer, udb, base_relations, result: URelation) -> None:
    """Cold encode / decode cost at the columnar boundary.

    Encodings are memoized per (relation, context), so a steady-state op
    pays neither for its base relations; what it does pay is the decode
    of its columnar-born result.  Both are measured on fresh copies and
    a fresh context (so the session's own memos are left alone) under a
    ``probe`` span that does not count towards the replay sum.
    """
    context = udb.columnar_context
    if context is None:
        return
    eligible = [r for r in base_relations if context.worth_encoding(r)]
    tracer.count("urel.columnar_eligible", len(eligible))
    if not eligible:
        return
    fresh = ColumnarContext(udb.w)
    copies = [URelation(r.columns, r.rows) for r in eligible]
    result_copy = URelation(result.columns, result.rows)
    with tracer.span("probe"):
        with tracer.span("urel.encode"):
            for relation in copies:
                fresh.encode(relation)
        encoded = fresh.encode(result_copy).rename({})  # drops the decode memo
        with tracer.span("urel.decode"):
            encoded.to_urelation()


def _cache_counters(tracer, stats: dict) -> None:
    tracer.count("engine.cache_hits", stats["hits"])
    tracer.count("engine.cache_misses", stats["misses"])
    tracer.count("engine.cache_bytes", stats["approx_bytes"])


class ConfidenceWorkload(Workload):
    """Workloads 1–3: a fresh session per op asks for every tuple's confidence."""

    eps: float | None = None
    delta: float | None = None

    def session(self, index: int, strategy="auto"):
        return repro.connect(
            self.udb, rng=index, eps=self.eps, delta=self.delta, strategy=strategy
        )

    def ask(self, db):
        return db.query(self.query).confidences()

    def op(self, index: int):
        with self.session(index) as db:
            return self.ask(db)

    def check(self, index: int, reports) -> bool:
        return reports.keys() == self.truth.keys() and all(
            _near(reports[row].value, self.truth[row]) for row in self.truth
        )

    def work(self, reports) -> dict[str, float]:
        return {"tuples": len(reports), "trials": sum(r.samples for r in reports.values())}

    def traced_op(self, index: int, tracer: Tracer):
        inner = resolve_strategy("auto", eps=self.eps, delta=self.delta)
        with tracer.span("op"):
            with self.session(index, TracedStrategy(inner, tracer)) as db:
                reports = self.ask(db)
                stats = db.cache_stats
        _cache_counters(tracer, stats)
        _replay_confidence(
            tracer, self.udb, self.query, reports, inner, index, self.eps, self.delta
        )
        return reports


# --------------------------------------------------------------------------
# 1. pipeline_conf — columnar algebra, large DNFs, zero trials
# --------------------------------------------------------------------------


class PipelineConf(ConfidenceWorkload):
    """R(A,B) ⋈ S(B,C) → select[A < n/20] → project[B] → confidences."""

    name = "pipeline_conf"
    n_vars = 12

    def generate(self) -> None:
        n_rows = 200 if self.smoke else 2000
        rng = random.Random(self.seed)
        n_keys = max(4, n_rows // 100)
        w = VariableTable()
        for i in range(self.n_vars):
            w.add(("x", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})

        def relation(columns, key_first, arities_of):
            # Keys go round-robin and condition sizes cycle, so every seed
            # joins the same number of pairs; the seed draws the conditions.
            rows = []
            for i in range(n_rows):
                key = i % n_keys
                arities = arities_of(key)
                arity = arities[(i // n_keys) % len(arities)]
                cond = Condition(
                    {
                        ("x", rng.randint(0, self.n_vars - 1)): rng.randint(0, 1)
                        for _ in range(arity)
                    }
                )
                rows.append((cond, (key, i) if key_first else (i, key)))
            return URelation.from_rows(columns, rows)

        # A key whose R-tuples all carry a condition never pairs two empty
        # conditions, so its DNF is not trivially true: a fifth of the
        # answers need real confidence computation, the rest are certain.
        def r_arities(key):
            return (1, 2) if key < n_keys // 5 else (0, 1, 2)

        self.udb = UDatabase(w=w)
        self.udb.set_relation("R", relation(("A", "B"), False, r_arities))
        self.udb.set_relation("S", relation(("B", "C"), True, lambda key: (0, 1, 2)))
        self.query = query(
            rel("R").join(rel("S")).select(col("A") < lit(n_rows // 20)).project(["B"])
        )

    def prepare_checks(self) -> None:
        with repro.connect(self.udb, strategy="exact-decomposition") as db:
            reports = self.ask(db)
        self.truth = {row: report.value + self.corrupt for row, report in reports.items()}


# --------------------------------------------------------------------------
# 2. ti_join_conf — the canonical safe query on a tuple-independent database
# --------------------------------------------------------------------------


class TiJoinConf(ConfidenceWorkload):
    """project[B](join(R, S)) on tuple-independent R(A,B), S(B,C)."""

    name = "ti_join_conf"

    def generate(self) -> None:
        n_rows = 150 if self.smoke else 2000
        n_keys = n_rows // 3
        rng = random.Random(self.seed)
        r_rows = [
            ((i, rng.randrange(n_keys)), round(rng.uniform(0.1, 0.9), 3)) for i in range(n_rows)
        ]
        s_rows = [
            ((rng.randrange(n_keys), i), round(rng.uniform(0.1, 0.9), 3)) for i in range(n_rows)
        ]
        self.udb = UDatabase()
        add_tuple_independent(self.udb, "R", ("A", "B"), r_rows)
        add_tuple_independent(self.udb, "S", ("B", "C"), s_rows)
        self.query = query(rel("R").join(rel("S")).project(["B"]))
        # Closed form of the safe plan: the join key b is an answer iff
        # some R-tuple and some S-tuple with that key are both present.
        absent_r: dict[int, float] = {}
        absent_s: dict[int, float] = {}
        for (_a, b), p in r_rows:
            absent_r[b] = absent_r.get(b, 1.0) * (1 - p)
        for (b, _c), p in s_rows:
            absent_s[b] = absent_s.get(b, 1.0) * (1 - p)
        self.truth = {
            (b,): (1 - absent_r[b]) * (1 - absent_s[b]) + self.corrupt
            for b in absent_r
            if b in absent_s
        }


# --------------------------------------------------------------------------
# 3. sampled_conf — Prop. 4.2's trial kernels, no algebra
# --------------------------------------------------------------------------


class SampledConf(ConfidenceWorkload):
    """confidence_all on tuples that each route to Karp–Luby."""

    name = "sampled_conf"
    eps = 0.1
    delta = 0.05

    def generate(self) -> None:
        n_tuples = 2 if self.smoke else 4
        rng = random.Random(self.seed)
        w = VariableTable()
        rows = []
        self.truth = {}
        for t in range(n_tuples):
            clauses, probability = _bipartite_clauses(rng, w, f"h{t}", self.side)
            rows.extend((Condition(clause), (t,)) for clause in clauses)
            self.truth[(t,)] = probability + self.corrupt
        self.udb = UDatabase(w=w)
        self.udb.set_relation("H", URelation.from_rows(("T",), rows))
        self.query = query(rel("H"))

    def ask(self, db):
        return db.confidence_all("H")

    def check(self, index: int, reports) -> bool:
        if reports.keys() != self.truth.keys():
            return False
        misses = 0
        for row, report in reports.items():
            if not self.smoke and report.method != "karp-luby":
                return False
            if report.lower is not None and not report.lower <= report.value <= report.upper:
                return False
            if abs(float(report.value) / self.truth[row] - 1) > self.eps:
                misses += 1
        # Each estimate may miss with probability δ; tolerate the misses
        # that allows, plus one.
        return misses <= math.ceil(self.delta * len(reports)) + 1


# --------------------------------------------------------------------------
# 4. guarantee_select — the Thm. 6.7 driver over σ̂
# --------------------------------------------------------------------------


CONTESTED_GAP = 0.5


def _selection_relation(rng, w, side, n_groups, n_contested, tau, corrupt=0.0):
    """G(A): repair-key groups plus contested bipartite candidates.

    A group tuple holds two of the four alternatives of one variable, so
    its clauses are mutually exclusive and its bound enclosure is a
    point; the groups' confidences lie on a fixed grid clear of τ, the
    seed draws how each splits over the alternatives.  A contested
    candidate is a bipartite 2-DNF F conjoined with a private variable z
    whose probability places P(F∧z) = p_z·P(F) at τ·(1 + CONTESTED_GAP):
    its lower bound is too loose to clear τ, so deciding ``P > τ`` takes
    sampling, while its tight upper bound decides any threshold above
    it.  Returns the rows and the exact confidences by key.
    """
    rows, truth = [], {}
    grid = [t for t in range(5, 96) if abs(t - 100 * tau) > 5]
    for k in range(n_groups):
        percent = grid[round(k * (len(grid) - 1) / max(n_groups - 1, 1))]
        first = rng.randint(1, percent - 1)
        third = rng.randint(1, 99 - percent)
        weights = [first, percent - first, third, 100 - percent - third]
        values = rng.sample(range(4), 4)
        var = ("rk", k)
        w.add(var, {value: Fraction(weight, 100) for value, weight in zip(values, weights)})
        rows.extend((Condition({var: value}), (k,)) for value in values[:2])
        truth[k] = percent / 100 + corrupt
    for c in range(n_contested):
        tag = f"c{c}"
        clauses, probability = _bipartite_clauses(rng, w, tag, side)
        target = tau * (1 + CONTESTED_GAP)
        p_z = target / probability
        w.add((tag, "z"), {1: p_z, 0: 1 - p_z})
        rows.extend((Condition({**clause, (tag, "z"): 1}), (1000 + c,)) for clause in clauses)
        truth[1000 + c] = target + corrupt
    return rows, truth


class GuaranteeSelect(Workload):
    """evaluate_with_guarantee(aselect[P > τ ; conf(A) as P](G))."""

    name = "guarantee_select"
    tau = 0.5
    delta = 0.1
    eps0 = 0.05
    text = "aselect[P > 0.5 ; conf(A) as P](G)"

    def generate(self) -> None:
        n_groups, n_contested = (6, 1) if self.smoke else (24, 2)
        rng = random.Random(self.seed)
        w = VariableTable()
        rows, self.truth = _selection_relation(
            rng, w, self.side, n_groups, n_contested, self.tau, self.corrupt
        )
        self.udb = UDatabase(w=w)
        self.udb.set_relation("G", URelation.from_rows(("A",), rows))
        self.node = repro.parse_query(self.text)

    def open(self) -> None:
        self.db = repro.connect(self.udb, rng=self.seed)

    def op(self, index: int):
        return self.db.evaluate_with_guarantee(
            self.text, delta=self.delta, eps0=self.eps0, rng=index
        )

    def check(self, index: int, report) -> bool:
        if not report.achieved:
            return False
        kept = {values[0] for _cond, values in report.relation.rows}
        singular = {values[0] for _cond, values in report.singular_rows}
        wrong_contested = 0
        for key, confidence in self.truth.items():
            if abs(confidence / self.tau - 1) <= self.eps0 or key in singular:
                continue  # inside the ε₀ band or flagged: outside the guarantee
            if (key in kept) != (confidence > self.tau):
                if key < 1000:
                    return False  # exact enclosures leave no room for error
                wrong_contested += 1
        # Thm. 6.7 bounds each membership error by δ, not by 0.
        contested = sum(1 for key in self.truth if key >= 1000)
        return wrong_contested <= math.ceil(self.delta * contested)

    def work(self, report) -> dict[str, float]:
        return {
            "evaluations": report.evaluations,
            "bounds_certified": report.bounds_certified,
            "trials": _driver_trials(report),
        }

    def traced_op(self, index: int, tracer: Tracer):
        with tracer.span("op"):
            report = self.op(index)
        with tracer.span("replay"):
            with tracer.span("core.driver"):
                evaluate_with_guarantee(
                    self.node,
                    self.udb,
                    delta=self.delta,
                    eps0=self.eps0,
                    rng=index,
                    backend=self.db.backend,
                    bounds_budget=DEFAULT_BOUND_BUDGET,
                )
        _model_driver_layers(tracer, self.udb, self.node, report, index)
        return report

    def close(self) -> None:
        self.db.close()


def _driver_trials(report) -> int:
    """σ̂ trials over *all* evaluations of a driver run.

    An evaluation at round budget l draws l·|F| trials per sampled
    value, so every earlier evaluation's draw is the final one scaled by
    its l (``history`` lists the l of each evaluation).
    """
    final = sum(record.decision.total_trials for record in report.decisions)
    return sum(final * rounds // report.rounds for rounds, _worst in report.history)


def _model_driver_layers(tracer, udb, node, report, op_index) -> None:
    """What the driver's evaluations spend in the layers below it.

    The driver re-runs the whole σ̂ plan once per doubling; each run
    rebuilds every candidate's DNF, re-derives its bound enclosure and
    redraws the sampled candidates' trial blocks.  Those steps are
    repeated here through the layers' public functions, under a
    ``model`` span (they overlap ``core.driver``, so they do not count
    towards the replay sum).
    """
    _relations, rows_in = _base_rows(udb, node)
    relation = udb.relation("G")
    rows = relation.possible_tuples().sorted_rows()
    sampled = {
        record.data[0] for record in report.decisions if record.decision.total_trials > 0
    }
    rng = random.Random(op_index)
    intervals = []
    with tracer.span("model"):
        for rounds, _worst in report.history:
            with tracer.span("urel.eval"):
                UEvaluator(udb, copy_db=False).evaluate(node.child)
            with tracer.span("confidence.dnf_build"):
                dnfs = [Dnf.for_tuple(relation, row, udb.w) for row in rows]
            with tracer.span("confidence.bounds"):
                intervals = dissociation_intervals(dnfs, DEFAULT_BOUND_BUDGET)
            with tracer.span("confidence.trials"):
                for row, dnf in zip(rows, dnfs):
                    if row[0] in sampled:
                        BatchKarpLubySampler(dnf, rng).run(rounds * dnf.size)
            tracer.count("confidence.dnfs_built", len(dnfs))
            tracer.count("confidence.dnf_clauses", sum(d.size for d in dnfs))
            tracer.count("urel.rows_in", rows_in)
            tracer.count("urel.rows_out", len(relation.rows))
    tracer.count("confidence.bounds_computed", len(intervals) * len(report.history))
    tracer.count(
        "confidence.bounds_exact",
        sum(1 for iv in intervals if iv.is_exact) * len(report.history),
    )
    tracer.count("confidence.trials", _driver_trials(report))
    tracer.count("core.sigma_trials", _driver_trials(report))
    tracer.count("core.driver_evaluations", report.evaluations)
    tracer.count("core.driver_rounds", report.rounds)
    tracer.count("core.candidates", len(report.decisions))
    tracer.count("core.bounds_certified", report.bounds_certified)
    tracer.count("engine.route.bounds", report.bounds_certified)
    tracer.count("engine.route.sampled", len(report.decisions) - report.bounds_certified)


# --------------------------------------------------------------------------
# 5. serve_mixed — two tenants through the whole serving stack
# --------------------------------------------------------------------------


class ServeMixed(Workload):
    """A seeded request mix from two tenants' wire clients, one closed loop.

    Each client is one tenant holding three live sessions and sends
    blocks of 20 requests: 10 ``query`` over three strings, 4
    ``confidence_all``, 3 ``topk(G, 5)``, 2 ``evaluate_with_guarantee``
    and 1 close + reopen — the 50/20/15/10/5 % mix in a fixed
    interleaving, each kind dealt round-robin over the sessions.  The
    two clients take turns, one request in flight at a time.  The seed
    draws the data and the sessions' seeds; the traffic script (where in
    the block each client starts, which session and string each kind
    starts with) is the same for every seed.  The server runs
    ``workers=2`` under a cache budget of half the sessions' working set.

    The selection threshold (0.9) lies above the contested candidate's
    tight upper bound, so the driver certifies every candidate from
    bounds and stays cheap; the sampling driver is ``guarantee_select``'s
    subject.  ``topk`` does sample here: the contested candidate sits on
    the fourth-place boundary of the groups' fixed confidence grid.
    """

    name = "serve_mixed"
    block = (
        "query confidence_all query topk query evaluate_with_guarantee query "
        "confidence_all query query topk query confidence_all query "
        "evaluate_with_guarantee query topk confidence_all query reopen"
    ).split()
    # Two strings of one cost: the budget evicts nearly every answer before
    # its session asks again (round-robin traffic under LRU), so the
    # median request is a re-run query, and with a cheaper third string
    # it fell in the gap between two costs (5.3 / 6.9 / 7.6 ms at
    # p45 / p50 / p55), where one request more or less moved it by 3 %.
    queries = (
        "project[B](join(R, S))",
        "select[A < 50](R)",
        "project[C](join(R, S))",
    )
    conf_query = "project[B](select[A < 24](join(R, S)))"
    select_threshold = 0.9
    select_query = "aselect[P > 0.9 ; conf(A) as P](G)"
    clients = 2
    sessions_per_client = 3
    # A contested candidate sits on the k-th boundary, so the race spends
    # its whole (ε, δ) budget on it; this budget keeps a cold top-k near
    # the cost of the other cold ops.
    topk_eps = 0.2
    topk_delta = 0.05

    def generate(self) -> None:
        n_rows, n_groups = (90, 4) if self.smoke else (300, 12)
        n_keys = n_rows // 3
        rng = random.Random(self.seed)
        self.udb = UDatabase()
        for name, columns, key_first in (("R", ("A", "B"), False), ("S", ("B", "C"), True)):
            rows = []
            for i in range(n_rows):
                key = rng.randrange(n_keys)
                values = (key, i) if key_first else (i, key)
                rows.append((values, round(rng.uniform(0.1, 0.9), 3)))
            add_tuple_independent(self.udb, name, columns, rows)
        g_rows, truth = _selection_relation(
            rng, self.udb.w, self.side, n_groups, 1, GuaranteeSelect.tau
        )
        self.udb.set_relation("G", URelation.from_rows(("A",), g_rows))
        self.selected = sorted(key for key, p in truth.items() if p > self.select_threshold)
        if self.corrupt:
            self.selected = []

    def _session_bytes(self) -> int:
        """One session's unbounded cache footprint: every query string and
        every tuple confidence (top-k and driver reports are small)."""
        with repro.connect(self.udb, copy=True, rng=self.seed) as db:
            for text in self.queries:
                db.query(text)
            db.confidence_all(self.conf_query)
            return db.cache_stats["approx_bytes"]

    def open(self, tracer: Tracer | None = None) -> None:
        working_set = self._session_bytes() * self.clients * self.sessions_per_client
        self.tracer = tracer
        # The server binds to the first loop that drives it, so warm-up
        # and the measured window share this one.
        self.loop = asyncio.new_event_loop()
        self.executor = TimedExecutor(tracer, 2) if tracer is not None else None
        self.server = serve(
            self.udb,
            workers=self.executor or 2,
            strategy=TracedStrategy(resolve_strategy("auto"), tracer) if tracer else "auto",
            tenant_quota=2,
            max_in_flight=4,
            max_cache_bytes=working_set // 2,
        )
        self.first_answers: dict[tuple, object] = {}
        self.parsed: set[tuple[str, str]] = set()
        self.session_seeds: list[int] = []
        self.timed_clients: list[TimedClient] = []

    def warm_up(self) -> None:
        # Hit-path requests only: what a warm-up op costs must not depend
        # on which kind the seed happens to deal first.
        warm = self._window(WARMUP_OPS, _WARMUP_BASE, Measurement(), block=("query",))
        self.loop.run_until_complete(warm)

    def measure(self, n_ops: int) -> Measurement:
        out = Measurement()
        self.loop.run_until_complete(self._window(n_ops, 0, out))
        return out

    def measure_traced(self, n_ops: int, tracer: Tracer) -> Measurement:
        # A fresh server with the injected executor, strategy and clients;
        # the untraced one is torn down first so only one pool is alive.
        self.close()
        self.open(tracer)
        out = self.measure(n_ops)
        _server_layers(self, tracer, out)
        return out

    async def _window(self, n_requests, base, out: Measurement, block=None) -> None:
        """One closed loop over both tenants: ``n_requests`` each, taking turns.

        One request is in flight at a time: with both clients sending at
        once a request's latency depended on which of the other client's
        requests it overlapped (they share the interpreter lock), and
        the median differed by a fifth between two passes of the same
        work (README, *Noise*).
        """
        tenants = [await self._open_tenant(c) for c in range(self.clients)]
        plans = [self._plan(c, n_requests, base, block or self.block) for c in range(self.clients)]
        started = time.perf_counter()
        for step in zip(*plans):
            for tenant, (kind, slot, text) in zip(tenants, step):
                out.attempted += 1
                elapsed = await self._request(tenant, kind, slot, text, out.counters)
                if elapsed is None:
                    out.failed += 1
                else:
                    out.latencies.append(elapsed)
        out.wall_s = time.perf_counter() - started
        for tenant in tenants:
            for session in tenant["sessions"]:
                await session.close()
        self.stats = await Client(self.server, tenant="t0").stats()

    def _plan(self, client_index: int, n_requests: int, base: int, block):
        """One client's requests as (kind, session slot, query string).

        Drawn per client, not per seed: which cached entry the budget
        evicts next, and so how many requests turn cold, follows the
        order of the requests, and letting the seed pick that order put
        the median latency in one of two modes 25 % apart.
        """
        rng = random.Random(f"{client_index}/{base}")
        plan = []
        while len(plan) < n_requests:
            cut = rng.randrange(len(block))
            start = {kind: rng.randrange(self.sessions_per_client) for kind in block}
            dealt = collections.Counter()
            for kind in (*block[cut:], *block[:cut]):
                turn = start[kind] + dealt[kind]
                dealt[kind] += 1
                slot = turn % self.sessions_per_client
                text = self.queries[turn // self.sessions_per_client % len(self.queries)]
                plan.append((kind, slot, text))
        return plan[:n_requests]

    async def _open_session(self, tenant: dict):
        seed = self.seed * 1000 + tenant["index"] * 100 + tenant["opened"]
        tenant["opened"] += 1
        self.session_seeds.append(seed)
        return await tenant["client"].open_session(seed=seed)

    async def _open_tenant(self, index: int) -> dict:
        """A wire client of its own tenant, holding its live sessions."""
        name = f"t{index}"
        if self.tracer is not None:
            client = TimedClient(self.server, name, self.tracer)
            self.timed_clients.append(client)
        else:
            client = Client(self.server, tenant=name, wire=True)
        tenant = {"index": index, "client": client, "opened": 0, "sessions": []}
        for _ in range(self.sessions_per_client):
            tenant["sessions"].append(await self._open_session(tenant))
        return tenant

    async def _request(self, tenant: dict, kind: str, slot: int, text: str, counters):
        """Send one request; its latency, or None if it failed its check."""
        session = tenant["sessions"][slot]
        started = time.perf_counter()
        try:
            if kind == "query":
                key, answer = text, await session.query(text)
            elif kind == "confidence_all":
                key = self.conf_query
                answer = await session.confidence_all(key)
            elif kind == "topk":
                key = "G"
                answer = await session.topk(key, 5, eps=self.topk_eps, delta=self.topk_delta)
            elif kind == "evaluate_with_guarantee":
                key = self.select_query
                answer = await session.evaluate_with_guarantee(
                    key, delta=GuaranteeSelect.delta, eps0=GuaranteeSelect.eps0
                )
            else:
                key, answer = "", None
                await session.close()
                tenant["sessions"][slot] = await self._open_session(tenant)
            elapsed = time.perf_counter() - started
            repeat = (session.session_id, kind, key) in self.first_answers
            ok = self._check_answer(session.session_id, kind, key, answer)
        except ServerError:
            ok = False  # a typed server error is a failed request
        if not ok:
            return None
        counters[f"requests.{kind}"] += 1
        if kind in ("query", "confidence_all", "topk"):
            counters["cacheable_requests"] += 1
            counters["repeat_requests"] += repeat
        if kind != "reopen" and (session.session_id, key) not in self.parsed:
            self.parsed.add((session.session_id, key))
            counters["strings_first_seen"] += 1
        return elapsed

    def _check_answer(self, session_id: str, kind: str, key: str, answer) -> bool:
        """Every response ok; deterministic ops equal to their first answer."""
        if kind == "reopen":
            return True
        if kind == "evaluate_with_guarantee":
            kept = sorted(row[0] for row in answer["rows"])
            return bool(answer["achieved"]) and kept == self.selected
        first = self.first_answers.setdefault((session_id, kind, key), answer)
        return first == answer

    def close(self) -> None:
        self.loop.run_until_complete(self.server.aclose())
        self.loop.close()
        if self.executor is not None:
            self.executor.close()


def _server_layers(workload: ServeMixed, tracer: Tracer, out: Measurement) -> None:
    """Per-layer readings of a traced serve_mixed window.

    From public result fields: each response's ``elapsed`` (kept by
    :class:`TimedClient`) and the ``stats`` op.  Parse and top-k times
    are replayed through ``parse_query`` / ``race_topk`` on the template.
    """
    calls = [call for client in workload.timed_clients for call in client.calls]
    by_op: dict[str, list[float]] = {}
    for op, latency, elapsed in calls:
        by_op.setdefault(op, []).append(latency)
        tracer.count("server.handle_s_total", elapsed)
        tracer.count("server.wire_s_total", latency - elapsed)
    tracer.count("server.calls", len(calls))
    tracer.count("server.repeat_requests", out.counters.get("repeat_requests", 0))
    tracer.count("server.cacheable_requests", out.counters.get("cacheable_requests", 0))
    workload.latency_by_op = by_op
    stats = workload.stats
    cache, scheduler = stats["cache"], stats["scheduler"]
    tracer.count("server.cache_evictions", cache["evictions"])
    tracer.count("server.cache_bytes_evicted", cache["bytes_evicted"])
    tracer.count("server.peak_in_flight", scheduler["peak_in_flight"])
    tracer.count("server.rejected", scheduler["rejected"])
    tracer.count("parallel.worker_rss_mb", workload.executor.worker_rss_mb())
    # Sessions parse a string once (their parse cache); replay that once
    # per (session, string) first seen.
    for _session, text in sorted(workload.parsed):
        with tracer.span("algebra.parse"):
            repro.parse_query(text)
        tracer.count("algebra.queries_parsed")
    relation = workload.udb.relation("G")
    rows = relation.possible_tuples().sorted_rows()
    dnfs = [Dnf.for_tuple(relation, row, workload.udb.w) for row in rows]
    for seed in workload.session_seeds[: workload.clients * workload.sessions_per_client]:
        fresh = [Dnf(dnf.members, workload.udb.w) for dnf in dnfs]
        with tracer.span("core.topk"):
            report = race_topk(rows, fresh, 5, workload.topk_eps, workload.topk_delta, rng=seed)
        tracer.count("core.topk_replays")
        tracer.count("core.topk_trials", report.total_trials)
        tracer.count("core.topk_rounds", report.rounds)
        tracer.count("core.topk_candidates", report.candidates)
        tracer.count("core.topk_bounds_decided", report.bounds_decided)


WORKLOADS = {
    cls.name: cls for cls in (PipelineConf, TiJoinConf, SampledConf, GuaranteeSelect, ServeMixed)
}
