"""Seeded answers do not depend on the hash seed, in process or on a pool.

F is a set (Section 4): a sampler indexes it in an order of the data
(``Dnf.encoded``), and repair-key visits a group's rows in ``repr``
order, so a seeded request answers the same bits whatever
``PYTHONHASHSEED`` the process runs under.  Each run below is a fresh
interpreter at hash seed 0 or 1; it prints every sampled case at workers
``none`` and on a two-worker pool cut to one item per task.  The pool's
forkserver workers start without ``PYTHONHASHSEED``, so they hash under
seeds of their own.  Every case must draw trials, or it would show
nothing.
"""

from __future__ import annotations

import math
import os
import pathlib
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import repro
from repro.algebra.builder import rel
from repro.algebra.expressions import col, lit
from repro.confidence.strategies import AutoStrategy
from repro.generators.coins import coin_database, toss_query
from repro.urel.conditions import Condition
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.parallel import ShardExecutor

CASES = ("auto-confidence-all", "aconf", "repair-key", "driver", "topk")
WORKERS = ("none", "pool")


def clause_db(n_tuples: int, n_vars: int = 8, clauses: int = 4, seed: int = 3) -> UDatabase:
    """R(A): each tuple under ``clauses`` random two-literal conditions."""
    rng = random.Random(seed)
    w = VariableTable()
    for i in range(n_vars):
        w.add(("x", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})
    rows = [
        (Condition({("x", rng.randrange(n_vars)): rng.randint(0, 1) for _ in range(2)}), (t,))
        for t in range(n_tuples)
        for _ in range(clauses)
    ]
    db = UDatabase(w=w)
    db.set_relation("R", URelation.from_rows(("A",), rows))
    return db


def k33_db(targets=(0.08, 0.85, 0.2, 0.45, 0.3, 0.6)) -> UDatabase:
    """R(A): tuple t under the nine clauses x_ti ∧ y_tj, P(t) near ``targets[t]``."""
    w = VariableTable()
    rows = []
    for t, target in enumerate(targets):
        q = Fraction(1.0 - (1.0 - math.sqrt(target)) ** (1.0 / 3.0)).limit_denominator(64)
        for side in "xy":
            for i in range(3):
                w.add((side, t, i), {1: q, 0: 1 - q})
        rows += [
            (Condition({("x", t, a): 1, ("y", t, b): 1}), (t,))
            for a in range(3)
            for b in range(3)
        ]
    db = UDatabase(w=w)
    db.set_relation("R", URelation.from_rows(("A",), rows))
    return db


def _connect(db, workers: str, **kw):
    executor = ShardExecutor(2, min_shard_items=1) if workers == "pool" else None
    return repro.connect(db, workers=executor, **kw)


def _rows(relation) -> list[str]:
    return sorted(map(repr, relation.rows))


def run_case(case: str, workers: str) -> list:
    """One seeded request, as the bits it answers; it must draw trials."""
    if case == "auto-confidence-all":
        strategy = AutoStrategy(0.3, 0.2, max_exact_size=0, bounds_budget=0)
        with _connect(clause_db(6), workers, strategy=strategy, rng=11) as db:
            reports = db.confidence_all("R")
        assert any(rep.samples > 0 for rep in reports.values())
        return sorted((row, repr(rep.value), rep.samples) for row, rep in reports.items())
    if case == "aconf":
        with _connect(clause_db(6), workers, rng=13) as db:
            return _rows(db.query(rel("R").approx_conf(0.3, 0.2)).relation)
    if case == "repair-key":
        # Three tosses of the drawn coin; a face's lineage is the tosses showing it.
        with _connect(coin_database(), workers, eps=0.2, delta=0.1, rng=5) as db:
            db.assign("S", toss_query(3))
            reports = db.confidence_all("project[Face](S)", strategy="karp-luby")
        assert any(rep.samples > 0 for rep in reports.values())
        return sorted((row, repr(rep.value), rep.samples) for row, rep in reports.items())
    if case == "driver":
        query = rel("R").approx_select(col("P1") > lit(0.4), groups=[["A"]])
        with _connect(clause_db(6, clauses=3), workers, rng=9) as db:
            report = db.evaluate_with_guarantee(query, delta=0.2, eps0=0.25, bounds_budget=0)
        assert any(d.decision.total_trials > 0 for d in report.decisions)
        decisions = [(d.data, d.decision.total_trials, repr(d.decision)) for d in report.decisions]
        return [_rows(report.relation), report.rounds, decisions]
    if case == "topk":
        with _connect(k33_db(), workers, eps=0.2, delta=0.05, rng=7) as db:
            report = db.topk("R", 2, bounds_budget=0)
        assert report.total_trials > 0
        return [
            [(e.row, repr(e.value), e.trials, e.source) for e in report.entries],
            report.total_trials,
            report.rounds,
        ]
    raise ValueError(case)


_SCRIPT = textwrap.dedent(
    """
    import os, sys
    sys.path[:0] = {paths!r}
    # The pool's workers start without it, so they hash under seeds of their own.
    os.environ.pop("PYTHONHASHSEED", None)
    from test_hash_seed import CASES, WORKERS, run_case
    for case in CASES:
        for workers in WORKERS:
            print(case, workers, repr(run_case(case, workers)))
    """
)


@pytest.fixture(scope="module")
def answers_by_hash_seed() -> dict[str, dict[tuple[str, str], str]]:
    """Each hash seed's printed answers, keyed by (case, workers)."""
    script = _SCRIPT.format(
        paths=[str(pathlib.Path(__file__).parent), str(pathlib.Path(repro.__file__).parent.parent)]
    )
    answers = {}
    for hash_seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        lines = [line.split(" ", 2) for line in done.stdout.splitlines()]
        answers[hash_seed] = {(case, workers): bits for case, workers, bits in lines}
    return answers


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("case", CASES)
def test_answers_do_not_move_with_the_hash_seed_or_the_pool(answers_by_hash_seed, case, workers):
    at_0, at_1 = (answers_by_hash_seed[seed][case, workers] for seed in ("0", "1"))
    assert at_0 == at_1
    assert at_0 == answers_by_hash_seed["0"][case, "none"]
