"""Per-tuple error accounting for unreliable relations (Lemma 6.4, Prop 6.6).

Approximate selection makes data *unreliable*: a tuple may be wrongly
present in — or wrongly absent from — an intermediate result.  Lemma 6.4
bounds the probability that a result tuple's membership differs between
the ideal query Q and its approximation Q∼ by a union bound over the
σ̂-decisions in the tuple's provenance.

To compute that bound faithfully — including the *wrongly absent* side,
which Example 6.5 shows can dominate — relations are annotated with:

* ``present`` rows: in the computed result, each with an error bound μ;
* ``phantom`` rows: candidates *not* in the computed result whose absence
  might be wrong, also with bounds μ.

Relational operations propagate both (e.g. a product of a present and a
phantom row is a phantom output row).  Summing μ over a tuple's
provenance is exactly Lemma 6.4(1); each σ̂ adds k·δ′(max(ε_φ, ε₀), l)
per decision as in Lemma 6.4(2).

``proposition_66_bound`` is the closed-form worst case
k·d·n^{k·d}·δ′(ε₀, l): the recurrence
μ(σ̂_φ(Q')) ≤ k·δ′(ε₀, l) + n^k·maxᵢ μ(Qᵢ) solved over nesting depth d.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.confidence.bounds import delta_prime
from repro.urel.urelation import URelation, URow

__all__ = ["AnnotatedRelation", "proposition_66_bound", "cap"]


def cap(x: float) -> float:
    """Probabilities are capped at 1 (all our bounds are union bounds)."""
    return min(1.0, x)


@dataclass
class AnnotatedRelation:
    """An (uncertain and/or unreliable) relation with per-row error bounds.

    ``relation``   the present rows (the computed result);
    ``complete``   the paper's c-flag for the result;
    ``mu``         error bound per present row (missing key ⇒ 0.0);
    ``phantom``    rows absent from the result that may wrongly be so;
    ``phantom_mu`` their error bounds;
    ``singular``   rows (present or phantom) whose provenance contains a
                   suspected ε₀-singularity — excluded from Theorem 6.7's
                   guarantee.
    """

    relation: URelation
    complete: bool
    mu: dict[URow, float] = field(default_factory=dict)
    phantom: URelation | None = None
    phantom_mu: dict[URow, float] = field(default_factory=dict)
    singular: set[URow] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.phantom is None:
            self.phantom = URelation(self.relation.columns, frozenset())

    # ------------------------------------------------------------- helpers
    @property
    def reliable(self) -> bool:
        """No error mass anywhere: safe input for repair-key / conf."""
        return (
            not self.phantom.rows
            and all(v == 0.0 for v in self.mu.values())
            and not self.singular
        )

    def bound_of(self, row: URow) -> float:
        return self.mu.get(row, 0.0)

    def phantom_bound_of(self, row: URow) -> float:
        return self.phantom_mu.get(row, 0.0)

    def all_bounds(self) -> dict[URow, float]:
        """Bounds of present and phantom rows together (phantoms included
        because Theorem 6.7 guarantees *membership*, absent side too)."""
        out = dict(self.phantom_mu)
        for row in self.relation.rows:
            out[row] = self.mu.get(row, 0.0)
        return out

    def worst_bound(self, include_singular: bool = False) -> float:
        """Max bound over rows, optionally skipping singular-tainted ones."""
        worst = 0.0
        for row, bound in self.all_bounds().items():
            if not include_singular and row in self.singular:
                continue
            worst = max(worst, bound)
        return worst


def proposition_66_bound(
    k: int, d: int, n: int, eps0: float, rounds: int
) -> float:
    """The Proposition 6.6 worst-case bound k·d·n^{k·d}·δ′(ε₀, l).

    ``k``: max arity / σ̂ conf-group count; ``d``: σ̂ nesting depth;
    ``n``: active-domain size; ``rounds``: the shared round budget l.
    Capped at 1.
    """
    if min(k, d, n) < 0:
        raise ValueError("k, d, n must be non-negative")
    if d == 0 or k == 0:
        return 0.0
    return cap(k * d * float(n) ** (k * d) * delta_prime(eps0, rounds))
