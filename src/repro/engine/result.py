"""Result objects returned by the :class:`~repro.engine.probdb.ProbDB` facade.

An :class:`EngineResult` wraps the output U-relation together with the
session that produced it, so per-tuple confidence and provenance stay
*lazy*: nothing #P-hard runs until a caller asks, and when they do the
computation goes through the session's strategy and memo cache.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from typing import TYPE_CHECKING

from repro.algebra.operators import Query
from repro.algebra.relations import Relation
from repro.urel.conditions import Condition
from repro.urel.urelation import URelation

if TYPE_CHECKING:
    from repro.engine.probdb import ProbDB
    from repro.confidence.strategies import ConfidenceReport, ConfidenceStrategy

__all__ = ["EngineResult"]


class EngineResult:
    """A query result: data, lazy confidence, provenance, and timing.

    ``relation`` is the result U-relation; ``complete`` mirrors the
    paper's function ``c``; ``elapsed`` is evaluation wall-clock in
    seconds; ``source`` preserves the textual query when one was parsed.

    Iterating the result yields its distinct possible data tuples in a
    deterministic order; confidence and provenance are computed lazily
    per row (and memoized on the session)::

        result = db.query("project[CoinType](T)")
        for row in result:                     # ('fair',), ('2headed',), ...
            result.confidence(row)             # ConfidenceReport for the row
            result.provenance(row)             # the row's conditions
        result.confidences()                   # all rows, one batched pass

    ``relation`` is lazy on a plan step 0 of the conf seam answers: it is
    built on first use (of ``relation``, ``provenance`` or ``str()``) over
    the relations the plan read when it was asked.
    """

    __slots__ = (
        "columns",
        "complete",
        "query",
        "source",
        "elapsed",
        "_engine",
        "_relation",
        "_answers",
        "_strategy",
        "_conf",
        "_rows",
    )

    def __init__(
        self,
        relation: "URelation | Callable[[], URelation]",
        complete: bool,
        query: Query,
        engine: "ProbDB",
        elapsed: float,
        source: str | None = None,
        answers: "dict[tuple, ConfidenceReport] | None" = None,
        columns: tuple[str, ...] | None = None,
    ):
        # Given step 0's ``answers`` (poss(result) → report, in ``repr``
        # order), ``relation`` may be a thunk: then ``columns`` is given.
        self._relation = relation
        self.columns = relation.columns if columns is None else columns
        self.complete = complete
        self.query = query
        self.source = source
        self.elapsed = elapsed
        self._engine = engine
        self._answers, self._strategy = answers, engine.strategy
        self._conf: dict[tuple, "ConfidenceReport"] = {}
        self._rows: list[tuple] | None = None if answers is None else list(answers)

    # ------------------------------------------------------------ data access
    @property
    def relation(self) -> URelation:
        """The result U-relation (on a lifted plan: built on first access)."""
        if callable(self._relation):
            self._relation = self._relation()
        return self._relation

    @property
    def rows(self) -> list[tuple]:
        """The distinct possible data tuples, deterministically ordered."""
        if self._rows is None:
            self._rows = self.relation.possible_tuples().sorted_rows()
        return self._rows

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def to_complete(self) -> Relation:
        """The classical relation (requires every tuple to be certain)."""
        return self.relation.to_complete()

    # ------------------------------------------------------------ uncertainty
    def provenance(self, row: Sequence) -> list[Condition]:
        """The disjunction F of conditions under which ``row`` appears."""
        return self.relation.conditions_of(row)

    def confidence(self, row: Sequence) -> "ConfidenceReport":
        """Lazy Pr[row ∈ result], via the session strategy and memo cache."""
        key = tuple(row)
        report = self._conf.get(key)
        if report is None:
            report = self._conf[key] = self._reports([key])[0]
        return report

    def _answered(self, strategy: "ConfidenceStrategy | None" = None):
        """Step 0's reports: captured, while ``db.strategy`` is the object they were
        computed under, or asked anew under an override ``strategy``; else ``None``."""
        if strategy is not None:
            return self._engine._evaluator.plan_confidences(self.query, strategy)
        return self._answers if self._engine.strategy is self._strategy else None

    def _reports(self, rows: list[tuple]) -> list["ConfidenceReport"]:
        """Reports for ``rows``: the captured answers where they serve, else lineage."""
        engine, answers = self._engine, self._answered()
        if answers is None:
            return engine.relation_confidences(self.relation, rows)
        # A row step 0 did not answer is no result tuple: its lineage is empty.
        absent = [row for row in rows if row not in answers]
        if absent:
            empty = URelation(self.columns)
            answers = {**answers, **dict(zip(absent, engine.relation_confidences(empty, absent)))}
        return [answers[row] for row in rows]

    def topk(self, k: int, eps=None, delta=None, bounds_budget=None):
        """The ``k`` most probable tuples, by confidence-interval racing.

        Delegates to :meth:`repro.engine.probdb.ProbDB.topk` on the
        originating query — the query evaluation itself is memoized on
        the session, so only the racing driver runs.  ``eps``/``delta``
        default to the session guarantee; see the facade method for the
        full contract.
        """
        kwargs = {}
        if bounds_budget is not None:
            kwargs["bounds_budget"] = bounds_budget
        return self._engine.topk(self.query, k, eps=eps, delta=delta, **kwargs)

    def confidences(self) -> dict[tuple, "ConfidenceReport"]:
        """Confidence reports for every possible tuple, in one batched pass.

        Rows whose confidence was already computed (lazily or by a prior
        call) are reused; the remainder go through the session's batched
        path — the strategy sees them all at once and draws their Monte
        Carlo trials as vectorized blocks (see
        :meth:`repro.engine.probdb.ProbDB.confidence_all`).
        """
        missing = [row for row in self.rows if tuple(row) not in self._conf]
        if missing:
            for row, report in zip(missing, self._reports(missing)):
                self._conf[tuple(row)] = report
        return {row: self._conf[tuple(row)] for row in self.rows}

    def __repr__(self) -> str:
        kind = "complete" if self.complete else "uncertain"
        return (
            f"EngineResult({len(self.rows)} tuples, {kind}, "
            f"{self.elapsed * 1000:.2f} ms)"
        )

    def __str__(self) -> str:
        return str(self.relation)
