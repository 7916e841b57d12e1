"""E4 — Theorem 3.4 / Proposition 3.5: the complexity landscape, in work counts.

Shape claims regenerated:

* exact confidence on the succinct representation grows *exponentially*
  on the #P-hard bipartite 2-DNF family: the enumeration solver — the
  literal #P oracle — visits every assignment of the up to 2n Boolean
  variables, up to 4^n of them;
* the Karp–Luby FPRAS at fixed (ε, δ) grows *polynomially*: it draws
  m = ⌈3·|F|·ln(2/δ)/ε²⌉ trials, linear in |F| ≤ n², so a crossover
  appears at moderate sizes;
* on the nonsuccinct representation, conf is cheap (Prop 3.5) — its cost
  is linear in the (exponentially many) worlds, paid by the
  representation instead of the operator.
"""

from __future__ import annotations

import time

from repro.confidence import (
    Dnf,
    batch_approximate_confidence,
    karp_luby_sample_size,
    probability_by_enumeration,
)
from repro.generators.hard import bipartite_2dnf
from repro.generators.tpdb import tuple_independent
from repro.urel import enumerate_worlds


def test_exact_exponential_vs_karp_luby_polynomial_shape(monkeypatch):
    """Enumeration visits 2^|vars| ≤ 4^n assignments; Karp–Luby's trials stay linear in |F|."""
    visited = []
    evaluate = Dnf.evaluate

    def counting_evaluate(self, world):
        visited.append(1)
        return evaluate(self, world)

    monkeypatch.setattr(Dnf, "evaluate", counting_evaluate)
    sizes = [3, 5, 7]
    exact_work, kl_work = [], []
    for n in sizes:
        dnf = bipartite_2dnf(n, n, edge_probability=0.5, rng=n)
        visited.clear()
        probability_by_enumeration(dnf)
        assert len(visited) == 2 ** len(dnf.variables)
        exact_work.append(len(visited))
        estimate = batch_approximate_confidence(dnf, 0.3, 0.3, rng=1)
        assert estimate.samples == karp_luby_sample_size(0.3, 0.3, dnf.size)
        assert dnf.size <= n * n
        kl_work.append(estimate.samples)
    # Exponential growth: the largest exact run dwarfs the smallest.
    assert exact_work[-1] > 20 * exact_work[0]
    # KL grows at most polynomially: nowhere near the exact blowup ratio.
    kl_ratio = kl_work[-1] / kl_work[0]
    exact_ratio = exact_work[-1] / exact_work[0]
    assert kl_ratio < exact_ratio / 4
    # Crossover: at the largest size the FPRAS does less work than exact.
    assert kl_work[-1] < exact_work[-1]


def test_nonsuccinct_conf_is_cheap_per_world():
    """Prop 3.5: conf on explicit worlds is one linear aggregation."""
    db = tuple_independent("R", ("A",), [((f"t{i}",), 0.5) for i in range(10)])
    pwdb = enumerate_worlds(db, max_worlds=2048)  # 1024 worlds
    start = time.perf_counter()
    conf = pwdb.confidence_relation("R")
    elapsed = time.perf_counter() - start
    assert len(conf) == 10
    assert elapsed < 5.0  # linear pass over 1024 worlds × 10 tuples
