"""E17 — ablation: the decomposition solver agrees with brute-force enumeration.

The variable-elimination solver (Shannon expansion + independent-component
factoring + memoization) must agree exactly with enumeration, the literal
#P oracle, on the #P-hard bipartite 2-DNF family.
"""

from __future__ import annotations

from repro.confidence import probability_by_decomposition, probability_by_enumeration
from repro.generators.hard import bipartite_2dnf


def test_agreement():
    for seed in range(5):
        dnf = bipartite_2dnf(4, 4, edge_probability=0.5, rng=seed)
        assert probability_by_decomposition(dnf) == probability_by_enumeration(dnf)
