"""Approximable values: the abstraction under the Figure 3 algorithm.

Section 5 is phrased over "k (possibly different) (ε, δ)-approximation
schemes": anything that produces an estimate p̂, can be *refined* at a
cost, and carries an error bound δ(ε) on the relative deviation
Pr[|p̂ − p| ≥ ε·p].  Tuple confidences estimated by Karp–Luby are the
paper's instance; the closing remark of Section 5 notes the results "may
conceivably extend to areas such as online aggregation [12, 13]".

This module defines the interface and three implementations:

``KarpLubyValue``
    a batch Karp–Luby sampler over a disjunction F; one refinement step runs
    |F| estimator invocations (the Figure 3 inner loop), and
    δ(ε) = 2·e^{−m·ε²/(3|F|)}.

``HoeffdingMeanValue``
    the online-aggregation instance: the running mean of a bounded
    sample stream.  One refinement draws a batch; the relative-error
    bound is derived from Hoeffding's inequality via

        |p̂ − µ| < ε·p̂/(1+ε)   ⇒   µ > p̂/(1+ε)   ⇒   ε·µ > ε·p̂/(1+ε),

    so Pr[|p̂ − µ| ≥ ε·µ] ≤ Pr[|p̂ − µ| ≥ t] ≤ 2·e^{−2·m·t²/R²} with
    t = ε·p̂/(1+ε) and R the sample range — a rigorous δ(ε) that lets
    HAVING-style predicates over running aggregates ride the unchanged
    Figure 3 machinery.

``ExactValue``
    a constant: exact attribute values "can be viewed as constants for
    the purpose of the previous lemma".
"""

from __future__ import annotations

import abc
import math
import numbers
import random
from collections.abc import Callable

from repro.confidence.batch import BatchKarpLubySampler
from repro.confidence.dnf import Dnf

__all__ = [
    "ApproximableValue",
    "KarpLubyValue",
    "HoeffdingMeanValue",
    "ExactValue",
    "as_approximable",
]


class ApproximableValue(abc.ABC):
    """One refinable estimate with a relative-error tail bound."""

    @property
    @abc.abstractmethod
    def is_exact(self) -> bool:
        """True when the value is known exactly (no sampling error)."""

    @property
    @abc.abstractmethod
    def estimate(self) -> float:
        """The current estimate p̂."""

    @property
    @abc.abstractmethod
    def trials(self) -> int:
        """Total elementary sampling steps spent so far."""

    @abc.abstractmethod
    def refine(self) -> None:
        """Spend one batch of sampling effort (a Figure 3 round)."""

    def refine_many(self, rounds: int) -> None:
        """Spend ``rounds`` refinement rounds' worth of effort at once.

        Statistically identical to calling :meth:`refine` that many
        times; implementations backed by the vectorized trial engine
        override this to draw the whole allocation as one block (the
        fixed-budget regime of the Theorem 6.7 driver).
        """
        for _ in range(rounds):
            self.refine()

    @abc.abstractmethod
    def error_bound(self, eps: float) -> float:
        """δ(ε) ≥ Pr[|p̂ − p| ≥ ε·p] for the effort spent so far."""

    @abc.abstractmethod
    def clone(self, rng: random.Random | int | None = None) -> "ApproximableValue":
        """A fresh, independent estimator of the same quantity.

        The Section 5 duplication trick — "approximate the same value
        twice (yielding a value with an independent error)" — needs an
        estimator copy with its own randomness stream and zero samples.
        """


class KarpLubyValue(ApproximableValue):
    """Tuple confidence approximated by the Karp–Luby estimator.

    A :class:`~repro.confidence.batch.BatchKarpLubySampler` draws each
    refinement round's |F| trials (and multi-round allocations, see
    :meth:`refine_many`) in blocks on the trial ``backend``
    (``None``/``"auto"`` picks numpy when importable) and the
    ``executor`` (:class:`~repro.util.parallel.ShardExecutor`; default:
    the process-wide serial one), which cuts each allocation into
    per-block budgets merged by trial-count weighting.
    """

    def __init__(
        self,
        dnf: Dnf,
        rng: random.Random | int | None = None,
        backend: str | None = None,
        executor=None,
    ):
        #: Guaranteed enclosing bound interval
        #: (:class:`repro.confidence.dissociation.BoundInterval`), seeded
        #: by the Figure 3 approximator when bound pruning is enabled.
        #: Advisory metadata: it never alters the estimate or the trial
        #: stream, so sampled transcripts stay bit-identical with and
        #: without it.
        self.interval = None
        self._sampler = BatchKarpLubySampler(
            dnf, rng, backend=backend, executor=executor
        )

    @property
    def dnf(self) -> Dnf:
        return self._sampler.dnf

    @property
    def sampler(self) -> BatchKarpLubySampler:
        """The underlying batch Karp–Luby sampler."""
        return self._sampler

    @property
    def is_exact(self) -> bool:
        return self._sampler.is_exact

    @property
    def estimate(self) -> float:
        return self._sampler.estimate

    @property
    def trials(self) -> int:
        return self._sampler.trials

    def refine(self) -> None:
        # The Figure 3 loop body: "repeat |F_i| times do X_i += estimator".
        self._sampler.run(self._sampler.dnf.size)

    def refine_many(self, rounds: int) -> None:
        # One block of rounds·|F| trials: the whole (ε, δ)-derived round
        # allocation for this value drawn at once.
        if rounds > 0:
            self._sampler.run(rounds * self._sampler.dnf.size)

    def error_bound(self, eps: float) -> float:
        return self._sampler.error_bound(eps)

    def clone(self, rng: random.Random | int | None = None) -> "KarpLubyValue":
        sampler = self._sampler
        fresh = KarpLubyValue(
            sampler.dnf, rng, backend=sampler.backend, executor=sampler.executor
        )
        fresh.interval = self.interval
        return fresh


class HoeffdingMeanValue(ApproximableValue):
    """Running mean of a bounded stream — the online-aggregation value.

    ``draw`` yields one sample per call; samples must lie within
    ``value_range = (lo, hi)``.  ``batch_size`` samples are drawn per
    refinement round.  The estimate must be positive for the relative
    bound to be meaningful (confidences, counts, averages of positive
    quantities); a non-positive running mean yields the vacuous bound.
    """

    def __init__(
        self,
        draw: Callable[[random.Random], float],
        value_range: tuple[float, float],
        rng: random.Random | int | None = None,
        batch_size: int = 32,
    ):
        from repro.util.rng import ensure_rng

        lo, hi = value_range
        if not lo < hi:
            raise ValueError(f"need lo < hi in value_range, got {value_range}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._draw = draw
        self._lo, self._hi = float(lo), float(hi)
        self._rng = ensure_rng(rng)
        self._batch = batch_size
        self._count = 0
        self._total = 0.0

    @property
    def is_exact(self) -> bool:
        return False

    @property
    def estimate(self) -> float:
        if self._count == 0:
            raise RuntimeError("no samples drawn yet")
        return self._total / self._count

    @property
    def trials(self) -> int:
        return self._count

    def refine(self) -> None:
        for _ in range(self._batch):
            value = float(self._draw(self._rng))
            if not self._lo <= value <= self._hi:
                raise ValueError(
                    f"sample {value} outside declared range "
                    f"[{self._lo}, {self._hi}]"
                )
            self._total += value
            self._count += 1

    def error_bound(self, eps: float) -> float:
        if eps <= 0 or self._count == 0:
            return 1.0
        p_hat = self.estimate
        if p_hat <= 0:
            return 1.0
        t = eps * p_hat / (1.0 + eps)
        spread = self._hi - self._lo
        return min(1.0, 2.0 * math.exp(-2.0 * self._count * t * t / (spread * spread)))

    def clone(self, rng: random.Random | int | None = None) -> "HoeffdingMeanValue":
        return HoeffdingMeanValue(
            self._draw, (self._lo, self._hi), rng, self._batch
        )


class ExactValue(ApproximableValue):
    """A known constant (zero error at any ε)."""

    def __init__(self, value: float):
        self._value = float(value)

    @property
    def is_exact(self) -> bool:
        return True

    @property
    def estimate(self) -> float:
        return self._value

    @property
    def trials(self) -> int:
        return 0

    def refine(self) -> None:  # nothing to refine
        return

    def error_bound(self, eps: float) -> float:
        return 0.0

    def clone(self, rng: random.Random | int | None = None) -> "ExactValue":
        return self


def as_approximable(
    value: "ApproximableValue | Dnf | float | int",
    rng: random.Random | int | None = None,
    backend: str | None = None,
    executor=None,
) -> ApproximableValue:
    """Coerce user input into an :class:`ApproximableValue`.

    Disjunctions become Karp–Luby values (the paper's case) on the given
    trial ``backend`` and shard ``executor``; numbers — including exact
    rationals like the :class:`~fractions.Fraction` confidences the
    exact solvers produce — become exact constants; existing values pass
    through.  ``bool`` is rejected: a truth value is a predicate's
    *output*, and silently reading one as the constant 0.0/1.0 would
    mask a caller bug.
    """
    if isinstance(value, ApproximableValue):
        return value
    if isinstance(value, Dnf):
        return KarpLubyValue(value, rng, backend=backend, executor=executor)
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return ExactValue(value)
    raise TypeError(f"cannot treat {value!r} as an approximable value")
