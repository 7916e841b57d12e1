"""Nonsuccinct possible-worlds engine (Sections 2 and 3, Proposition 3.5)."""

from repro.worlds.database import PossibleWorldsDB, Prob, World, combine
from repro.worlds.evaluate import (
    EvaluationError,
    evaluate,
    evaluate_certain,
    evaluate_worlds,
)
from repro.worlds.repair import RepairError, key_repairs

__all__ = [
    "PossibleWorldsDB",
    "World",
    "Prob",
    "combine",
    "evaluate",
    "evaluate_worlds",
    "evaluate_certain",
    "EvaluationError",
    "key_repairs",
    "RepairError",
]
