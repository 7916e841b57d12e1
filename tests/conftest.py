"""Shared fixtures: the paper's coin database on both engines, seeded RNGs.

Also :func:`scalar_only` / :func:`on_engine`, the scalar-vs-columnar
differentials' switch.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

import repro
from repro.algebra.relations import Relation
from repro.generators.coins import (
    coin_database,
    coin_worlds_database,
    evidence_query,
    pick_coin_query,
    posterior_query,
    toss_query,
)
from repro.urel import UDatabase
from repro.urel.columnar import ColumnarContext
from repro.worlds import PossibleWorldsDB


def scalar_only(db: UDatabase) -> UDatabase:
    """``db`` with a columnar context no relation is worth encoding.

    Attach it before building an evaluator or session on ``db``: every
    operator then runs the indexed scalar path, the reference the
    columnar engine is compared against.  Copies of ``db`` (a driver's,
    ``connect(copy=True)``) inherit the context's ``min_rows``.
    """
    db.columnar_context = ColumnarContext(db.w, db.condition_pool, min_rows=sys.maxsize)
    return db


ENGINES = ("columnar", "scalar")


def on_engine(engine: str, db: UDatabase) -> UDatabase:
    """``db`` itself for ``"columnar"``, a :func:`scalar_only` copy for ``"scalar"``."""
    return scalar_only(db.copy()) if engine == "scalar" else db


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def coins_complete() -> dict[str, Relation]:
    half = Fraction(1, 2)
    return {
        "Coins": Relation.from_rows(
            ("CoinType", "Count"), [("fair", 2), ("2headed", 1)]
        ),
        "Faces": Relation.from_rows(
            ("CoinType", "Face", "FProb"),
            [("fair", "H", half), ("fair", "T", half), ("2headed", "H", Fraction(1))],
        ),
    }


@pytest.fixture
def coin_udb() -> UDatabase:
    return coin_database()


@pytest.fixture
def coin_pwdb() -> PossibleWorldsDB:
    return coin_worlds_database()


@pytest.fixture
def coin_session_after_T() -> repro.ProbDB:
    """An engine session with R, S, T of Example 2.2 assigned."""
    session = repro.connect(coin_database(), strategy="exact-decomposition")
    session.assign("R", pick_coin_query())
    session.assign("S", toss_query(2))
    session.assign("T", evidence_query(["H", "H"]))
    return session


@pytest.fixture
def posterior_q():
    return posterior_query()
