"""The Theorem 6.7 evaluation driver: doubling the round budget to a target δ.

Theorem 6.7: fix ε₀ and a positive UA[σ̂] query; there is a polynomial-
time algorithm that, given δ, computes for all tuples without
singularities in their provenance their membership in the result with
error ≤ δ.  The proof's procedure, implemented here verbatim:

    "Start with a small value of l, say 1.  Evaluate the query using
    that l value.  Record error probabilities for each tuple while
    proceeding.  If the error of a tuple in the output exceeds δ,
    double l and restart query evaluation.  Repeat until the desired
    error bound is achieved."

Termination is guaranteed at the latest when l ≥ l₀ =
⌈3·log(2·k·d·n^{kd}/δ)/ε₀²⌉ (Proposition 6.6), since every per-decision
bound is then below δ even at its worst.  Tuples whose σ̂ decisions never
separated from the boundary (suspected ε₀-singularities) are excluded
from the stopping test — the theorem's guarantee explicitly excludes
them — and reported in the result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.algebra.builder import Q
from repro.algebra.operators import ApproxSelect, Query, walk
from repro.confidence.bounds import rounds_for
from repro.core.approx_select import ApproxQueryEvaluator, DecisionRecord
from repro.core.error_bounds import AnnotatedRelation
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URow
from repro.util.rng import ensure_rng, spawn_rng
from repro.util.scope import current_scope, run_scope

__all__ = ["DriverReport", "evaluate_with_guarantee"]


@dataclass
class DriverReport:
    """Outcome of a Theorem 6.7 driver run.

    ``annotated``      the final :class:`AnnotatedRelation` (present rows,
                       phantoms, per-row bounds);
    ``tuple_bounds``   membership-error bound per row (present and
                       phantom — the theorem guarantees membership both
                       ways);
    ``singular_rows``  rows with a suspected ε₀-singularity in their
                       provenance (excluded from the guarantee);
    ``rounds``         the final round budget l;
    ``evaluations``    how many full query evaluations were performed;
    ``achieved``       True iff every non-singular row's bound is ≤ δ;
    ``history``        (l, worst non-singular bound) per evaluation;
    ``decisions``      σ̂ decision audit records of the final evaluation;
    ``bounds_certified`` σ̂ candidates of the final evaluation decided by
                       dissociation bound intervals alone (no trials);
    ``bounds_computed`` bound enclosures this run had solved, over all
                       its evaluations: at most one per distinct
                       candidate disjunction, none on a session that
                       already holds them (a cost counter — it says
                       nothing about the answer and stays off the wire).
    """

    annotated: AnnotatedRelation
    delta: float
    eps0: float
    rounds: int
    evaluations: int
    achieved: bool
    tuple_bounds: dict[URow, float] = field(default_factory=dict)
    singular_rows: frozenset[URow] = frozenset()
    history: list[tuple[int, float]] = field(default_factory=list)
    decisions: list[DecisionRecord] = field(default_factory=list)
    bounds_certified: int = 0
    bounds_computed: int = 0

    @property
    def relation(self):
        """The result U-relation (present rows only)."""
        return self.annotated.relation


def evaluate_with_guarantee(
    query: Query | Q,
    db: UDatabase,
    delta: float,
    eps0: float,
    rng: random.Random | int | None = None,
    initial_rounds: int = 1,
    max_rounds: int | None = None,
    epsilon_method: str = "auto",
    backend: str | None = None,
    bounds_budget: int | None = None,
) -> DriverReport:
    """Evaluate a positive UA[σ̂] query with overall tuple error ≤ δ.

    ``max_rounds`` defaults to the single-decision worst case
    ⌈3·ln(2/δ′)/ε₀²⌉ for δ′ = δ / max(1, #σ̂ operators), doubled once for
    slack — a loose but finite ceiling; the loop almost always stops far
    earlier because per-tuple ε_ψ values exceed ε₀.

    Each evaluation at round budget l runs fixed-budget Figure 3
    decisions, so every stochastic value's whole (ε, δ)-derived
    allocation of l·|Fᵢ| Karp–Luby trials is drawn as one vectorized
    block rather than trial by trial.  The run scope's executor
    (:mod:`repro.util.scope`) fans each σ̂'s candidate tuples out over
    worker processes, each candidate drawing from a stream seeded by its
    position in the sorted candidate order, so results stay
    bit-identical at any worker count and shard plan.

    ``bounds_budget`` (``None``/0 disables) enables dissociation bound
    pruning: every Karp–Luby value is seeded with its guaranteed bound
    interval, point intervals become exact constants, and candidates
    whose predicate is decided by the interval box alone are certified
    with error 0 before any round budget is allocated.  Pruning never
    shifts the trial streams of decisions that still sample, so results
    at a given l are bit-identical wherever sampling still happens.

    "Double l and restart query evaluation" restarts the *sampling*: an
    enclosure does not depend on l, so the run memo of one run scope
    serves every evaluation of the run and each distinct candidate
    disjunction is solved once, not once per doubling
    (``DriverReport.bounds_computed``).  The same memo interns the
    candidate disjunctions, so their weights and trial encodings are
    built once per run, and keeps the σ̂ decisions that drew no trial.
    The run's scope is its own — a fresh memo, ``bounds_budget`` — on
    the enclosing scope's executor.
    """
    # Kept for the frozen ``benchmarks/e2e`` harness, which passes
    # ``backend=db.backend``; numpy is the only trial engine.
    if backend not in (None, "numpy"):
        raise ValueError(f"unknown backend {backend!r}; numpy is the only one")
    node = query.q if isinstance(query, Q) else query
    with run_scope(bounds_budget=0 if bounds_budget is None else bounds_budget):
        return _run_doubling(
            node, db, delta, eps0, ensure_rng(rng), initial_rounds, max_rounds, epsilon_method
        )


def _run_doubling(
    node, db, delta, eps0, generator, initial_rounds, max_rounds, epsilon_method
) -> DriverReport:
    """:func:`evaluate_with_guarantee`'s doubling loop, in the current run scope
    (a session's request runs it in its own, whose memo fronts the session cache)."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    n_sigma = sum(1 for q in walk(node) if isinstance(q, ApproxSelect)) or 1
    if max_rounds is None:
        max_rounds = 2 * rounds_for(eps0, delta / (2.0 * n_sigma))

    memo = current_scope().memo
    computed_before = memo.computed
    rounds = max(1, initial_rounds)
    history: list[tuple[int, float]] = []
    while True:
        evaluator = ApproxQueryEvaluator(
            db, eps0, rounds=rounds, rng=spawn_rng(generator), epsilon_method=epsilon_method
        )
        annotated = evaluator.evaluate(node)
        worst = annotated.worst_bound(include_singular=False)
        history.append((rounds, worst))
        if worst <= delta or rounds >= max_rounds:
            break
        rounds = min(rounds * 2, max_rounds)
    return DriverReport(
        annotated=annotated,
        delta=delta,
        eps0=eps0,
        rounds=rounds,
        evaluations=len(history),
        achieved=worst <= delta,
        tuple_bounds=annotated.all_bounds(),
        singular_rows=frozenset(annotated.singular),
        history=history,
        decisions=list(evaluator.decision_log),
        bounds_certified=sum(r.decision.certified_by_bounds for r in evaluator.decision_log),
        bounds_computed=memo.computed - computed_before,
    )
