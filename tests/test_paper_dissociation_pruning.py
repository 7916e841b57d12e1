"""E21 — dissociation-bound pruning: certified σ̂ candidates vs. sampling.

The PTIME bound layer (Gatterbauer–Suciu-style oblivious intervals,
``repro.confidence.dissociation``) lets the Theorem 6.7 driver certify a
σ̂ candidate whenever the guaranteed interval box already decides the
predicate: no round budget, no Karp–Luby trial, error exactly 0.  The
workload is a wide selection where every group is certifiable —
repair-key alternatives (exact at budget 0) and dense random bipartite
2-DNFs the budgeted solver still finishes — against the identical query
forced onto pure sampling (``bounds_budget=0``) at the same (ε₀, δ).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.algebra.builder import query, rel
from repro.algebra.expressions import col, lit
from repro.core import evaluate_with_guarantee
from repro.urel.conditions import Condition
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.parallel import ShardExecutor

N_EXACT = 12  # repair-key groups: confidence exactly 3/5
N_CLEAR = 4  # random bipartite 2-DNF groups the budgeted solver finishes
THRESHOLD = 0.55  # close enough to 3/5 that sampling has to work for it
DELTA = 0.2
EPS0 = 0.05

SIGMA_QUERY = query(rel("R").approx_select(col("P1") > lit(THRESHOLD), groups=[["A"]]))


def bounds_db() -> UDatabase:
    """A wide σ̂ workload where every candidate's DNF has an exact
    dissociation interval — certified by bounds, sampled by the baseline."""
    w = VariableTable()
    rows = []
    for a in range(N_EXACT):
        # Repair-key alternatives: mutually exclusive clauses sum exactly.
        w.add(("m", a), {k: Fraction(1, 5) for k in range(5)})
        for k in range(3):
            rows.append((Condition({("m", a): k}), (f"x{a}",)))
    for a in range(N_CLEAR):
        # Dense random bipartite 2-DNF: the Shannon budget finishes it,
        # but the sampled baseline runs its full Karp–Luby allocation.
        rng = random.Random(300 + a)
        for i in range(8):
            w.add(("c", a, i), {1: Fraction(1, 2), 0: Fraction(1, 2)})
            w.add(("d", a, i), {1: Fraction(1, 2), 0: Fraction(1, 2)})
        edges = [(i, j) for i in range(8) for j in range(8) if rng.random() < 0.6]
        for i, j in edges:
            rows.append((Condition({("c", a, i): 1, ("d", a, j): 1}), (f"y{a}",)))
    db = UDatabase(w=w)
    db.set_relation("R", URelation.from_rows(("A",), rows))
    return db


def _run(bounds_budget, executor=None):
    return evaluate_with_guarantee(
        SIGMA_QUERY,
        bounds_db(),
        delta=DELTA,
        eps0=EPS0,
        rng=7,
        executor=executor,
        bounds_budget=bounds_budget,
    )


def _kept(report):
    return sorted(values[0] for _, values in report.relation.rows)


@pytest.mark.slow
def test_bounds_certify_majority():
    """≥50 % of the candidates are certified by bounds alone, with the same kept rows."""
    pruned = _run(bounds_budget=64)
    sampled = _run(bounds_budget=0)

    candidates = N_EXACT + N_CLEAR
    assert pruned.bounds_certified >= candidates / 2, (
        f"only {pruned.bounds_certified}/{candidates} candidates certified"
    )
    assert sampled.bounds_certified == 0
    assert _kept(pruned) == _kept(sampled)
    assert pruned.achieved and sampled.achieved


def test_bounds_pruning_bit_identical_across_workers():
    """The pruned driver's whole transcript is equal at every worker count.

    Intervals are exact Fractions and certified candidates draw no trial,
    so pruning composes with the executor's determinism contract.
    """

    def transcript(report):
        return (
            sorted(map(repr, report.relation.rows)),
            sorted((repr(row), bound) for row, bound in report.tuple_bounds.items()),
            report.bounds_certified,
            report.rounds,
            [
                (
                    rec.data,
                    rec.decision.value,
                    rec.decision.total_trials,
                    rec.decision.certified_by_bounds,
                )
                for rec in report.decisions
            ],
        )

    results = []
    for workers in (1, 2, 4):
        with ShardExecutor(workers) as executor:
            results.append(transcript(_run(bounds_budget=64, executor=executor)))
    assert results[0] == results[1] == results[2]
