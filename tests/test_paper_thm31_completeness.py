"""E3 — Theorem 3.1: U-relational databases are a complete representation.

Round-trip: explicit possible worlds → U-relational database → unfolded
worlds; all tuple confidences must survive exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

from repro.algebra.relations import Relation
from repro.urel import enumerate_worlds, from_possible_worlds
from repro.worlds import PossibleWorldsDB, World


def _random_pwdb(seed: int, n_worlds: int) -> PossibleWorldsDB:
    rng = random.Random(seed)
    weights = [rng.randint(1, 9) for _ in range(n_worlds)]
    total = sum(weights)
    worlds = []
    for w in weights:
        rows = {
            (rng.randint(0, 3), rng.randint(0, 3))
            for _ in range(rng.randint(0, 6))
        }
        worlds.append(
            World({"R": Relation(("A", "B"), frozenset(rows))}, Fraction(w, total))
        )
    return PossibleWorldsDB(tuple(worlds))


def test_round_trip_exact_for_many_seeds():
    for seed in range(10):
        pwdb = _random_pwdb(seed, n_worlds=6)
        back = enumerate_worlds(from_possible_worlds(pwdb))
        for t in pwdb.possible_tuples("R").rows:
            assert back.tuple_confidence("R", t) == pwdb.tuple_confidence("R", t)
