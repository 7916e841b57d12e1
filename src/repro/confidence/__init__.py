"""Confidence computation (Section 4): exact #P solvers and the Karp–Luby FPRAS."""

from repro.confidence.batch import (
    BatchKarpLubySampler,
    KarpLubyEstimate,
    NaiveEstimate,
    batch_approximate_confidence,
    batch_naive_confidence,
    naive_sample_size_additive,
    shared_block_confidences,
)
from repro.confidence.bounds import (
    combine_independent,
    combine_union,
    delta_prime,
    eps_for_rounds,
    karp_luby_error_bound,
    karp_luby_sample_size,
    rounds_for,
)
from repro.confidence.dissociation import (
    DEFAULT_BOUND_BUDGET,
    BoundInterval,
    EnclosureMemo,
    dissociation_interval,
    dissociation_intervals,
)
from repro.confidence.dnf import Dnf, lineage
from repro.confidence.exact import (
    EnumerationLimitError,
    probability_by_decomposition,
    probability_by_enumeration,
)
from repro.confidence.extensional import EXTENSIONAL, SafePlan, lift
from repro.confidence.strategies import (
    ConfidenceReport,
    ConfidenceStrategy,
    ExactDecomposition,
    ExactEnumeration,
    KarpLuby,
    is_exact_solver,
)

__all__ = [
    "Dnf",
    "lineage",
    "EXTENSIONAL",
    "SafePlan",
    "lift",
    "ConfidenceReport",
    "ConfidenceStrategy",
    "ExactDecomposition",
    "ExactEnumeration",
    "KarpLuby",
    "is_exact_solver",
    "BoundInterval",
    "EnclosureMemo",
    "DEFAULT_BOUND_BUDGET",
    "dissociation_interval",
    "dissociation_intervals",
    "BatchKarpLubySampler",
    "batch_approximate_confidence",
    "batch_naive_confidence",
    "shared_block_confidences",
    "probability_by_enumeration",
    "probability_by_decomposition",
    "EnumerationLimitError",
    "KarpLubyEstimate",
    "NaiveEstimate",
    "naive_sample_size_additive",
    "karp_luby_error_bound",
    "karp_luby_sample_size",
    "delta_prime",
    "rounds_for",
    "eps_for_rounds",
    "combine_union",
    "combine_independent",
]
