"""The engine facade: one public API over algebra, urel, confidence, core.

``repro.connect(...)`` / :class:`ProbDB` replaced the historical entry
points (the removed ``USession`` shim, top-level ``evaluate``, direct
driver calls) with a single session object with pluggable confidence
strategies, vectorized batch sampling, explainable plans, and
per-session memoization.
"""

from repro.engine.cache import CacheStats, MemoCache, query_fingerprint
from repro.engine.plan import ExplainReport, PlanNode
from repro.engine.probdb import ProbDB, connect
from repro.engine.result import EngineResult
from repro.confidence.strategies import (
    AutoStrategy,
    ConfidenceReport,
    ConfidenceStrategy,
    DissociationBounds,
    ExactDecomposition,
    ExactEnumeration,
    KarpLuby,
    NaiveMonteCarlo,
    UnknownStrategyError,
    dnf_is_read_once,
    register_strategy,
    resolve_strategy,
    strategy_names,
)

__all__ = [
    "ProbDB",
    "connect",
    "EngineResult",
    "ExplainReport",
    "PlanNode",
    "MemoCache",
    "CacheStats",
    "query_fingerprint",
    "ConfidenceStrategy",
    "ConfidenceReport",
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
    "UnknownStrategyError",
]
