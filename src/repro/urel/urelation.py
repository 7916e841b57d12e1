"""U-relations: relations whose tuples carry world-set conditions.

A U-relation for schema ``R(Ā)`` is a relation ``U_R(D, Ā)`` where the
``D`` column holds partial functions over the random variables of the W
table (Section 3).  A tuple ``t`` is in relation ``R`` of possible world
``f*`` iff some ``⟨f, t⟩ ∈ U_R`` has ``f`` consistent with ``f*``.

The positive relational algebra translates *parsimoniously* over this
representation (the table in Section 3); those translated operations are
the methods of this class.  They are purely syntactic — none of them
looks at the W table — which is what makes them LOGSPACE
(Proposition 3.3).

Because a :class:`URelation` is immutable, it lazily builds (and keeps
forever, invalidation-free) caches that turn the scalar operator
paths from scan-per-call into lookup-per-call:

* the **tuple index** :meth:`lineage_index` (data tuple → list of
  conditions) behind :meth:`conditions_of` — one grouping pass instead
  of a full-relation scan per tuple, which is what makes batched
  confidence computation (``ProbDB.confidence_all``) linear instead of
  quadratic;
* the **join-key index** (key values → rows, one per key-position
  tuple) used by :meth:`natural_join` for its build side;
* the cached **variable set** / **certainty flag** behind
  :meth:`variables` and :attr:`is_certain`, recomputed from scratch on
  every call in the seed implementation (including inside ``in_world``
  loops);
* the **tuple-independence verdict** behind :meth:`independent_rows` —
  the data screen of extensional confidence
  (:mod:`repro.confidence.extensional`), asked once per relation.

Operators that construct rows from already-validated rows (``rename``,
``union``, ``_align_to``, ``select``, ``product``, ``natural_join``)
return through the trusted constructor :meth:`_trusted`, skipping the
``__post_init__`` re-validation and re-freezing of every row.  Condition
merging in ``product``/``natural_join`` goes through a
:class:`~repro.urel.conditions.ConditionPool`, so repeated ``D``-value
pairs stop re-hashing frozensets.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.algebra import schema as _schema
from repro.algebra.expressions import BoolExpr, Value
from repro.algebra.relations import ProjectionItem, Relation, normalize_projection
from repro.urel.conditions import TOP, Condition, ConditionPool

__all__ = ["URelation", "URow"]

URow = tuple[Condition, tuple[Value, ...]]

_SHARED_POOL = ConditionPool()
"""Fallback condition pool for standalone operator calls.

The evaluator threads each database's own pool through the operators;
direct method calls (tests, ad-hoc scripts) share this bounded one.
"""

_CACHE_LOCK = threading.Lock()
"""One lock for every relation's lazy-cache *builds* (reads stay lock-free).

The lazy caches below are idempotent — two racing builders compute equal
values and the last ``object.__setattr__`` wins — which is benign under
the GIL but was only an *assumption* on free-threaded CPython (where,
e.g., two threads interleaving ``_join_index``'s read-then-insert on the
shared ``indexes`` dict could drop one key's entry).  A single module
lock makes the assumption explicit and cheap: it is taken only on a
cache miss (once per relation per cache kind), every builder re-checks
under the lock, and the hit path — a plain attribute read of an already
published, never-mutated object — needs no lock at all.  Per-relation
locks would buy nothing: builds are rare and short, and a relation
cannot lazily grow its own lock without exactly this kind of global
guard.
"""


@dataclass(frozen=True)
class URelation:
    """A U-relation: schema plus a set of conditioned tuples."""

    columns: tuple[str, ...]
    rows: frozenset[URow] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        cols = _schema.check_schema(self.columns)
        object.__setattr__(self, "columns", cols)
        frozen = frozenset((cond, tuple(values)) for cond, values in self.rows)
        for cond, values in frozen:
            if not isinstance(cond, Condition):
                raise TypeError(f"row condition must be a Condition, got {cond!r}")
            if len(values) != len(cols):
                raise _schema.SchemaError(
                    f"tuple {values!r} has arity {len(values)}, schema {cols} "
                    f"has {len(cols)}"
                )
        object.__setattr__(self, "rows", frozen)

    # ------------------------------------------------------------ constructors
    @classmethod
    def _trusted(cls, columns: tuple[str, ...], rows: frozenset[URow]) -> "URelation":
        """Internal constructor for rows that are valid by construction.

        Skips ``__post_init__`` entirely: no schema re-check, no
        re-freezing, no per-row arity validation.  ``columns`` must be an
        already-checked schema tuple and ``rows`` a frozenset of
        ``(Condition, values-tuple)`` pairs whose arity matches — which
        is guaranteed whenever both come out of an existing
        :class:`URelation`.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)
        return self

    @staticmethod
    def from_complete(relation: Relation) -> "URelation":
        """Lift a complete relation: every tuple under the empty condition."""
        return URelation._trusted(
            relation.columns, frozenset((TOP, row) for row in relation.rows)
        )

    @staticmethod
    def from_rows(
        columns: Sequence[str],
        rows: Iterable[tuple[Condition, Sequence[Value]]],
    ) -> "URelation":
        return URelation(
            tuple(columns), frozenset((cond, tuple(vals)) for cond, vals in rows)
        )

    # ------------------------------------------------------------ inspection
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    @property
    def is_certain(self) -> bool:
        """True iff every tuple has the empty condition (classical relation).

        Computed once and cached (the relation is immutable).
        """
        cached = self.__dict__.get("_is_certain")
        if cached is None:
            with _CACHE_LOCK:
                cached = self.__dict__.get("_is_certain")
                if cached is None:
                    cached = all(cond.is_empty for cond, _ in self.rows)
                    object.__setattr__(self, "_is_certain", cached)
        return cached

    def to_complete(self) -> Relation:
        """The underlying complete relation; requires :attr:`is_certain`."""
        if not self.is_certain:
            raise ValueError("U-relation is not certain; cannot drop conditions")
        return Relation(self.columns, frozenset(vals for _, vals in self.rows))

    def possible_tuples(self) -> Relation:
        """poss(R) = π_sch(R)(U_R): the distinct data tuples.

        Served from the cached tuple index once it exists.
        """
        return Relation(self.columns, frozenset(self.lineage_index()))

    def sorted_rows(self) -> list[tuple[Value, ...]]:
        """poss(R) in ``repr`` order: the rows every confidence-closing
        operator reads, and a sampler draws, in."""
        return self.possible_tuples().sorted_rows()

    def lineage_index(self) -> dict[tuple[Value, ...], list[Condition]]:
        """Lazy cached tuple index: data tuple → conditions it appears under."""
        index = self.__dict__.get("_conds_by_tuple")
        if index is None:
            with _CACHE_LOCK:
                index = self.__dict__.get("_conds_by_tuple")
                if index is None:
                    index = {}
                    for cond, vals in self.rows:
                        index.setdefault(vals, []).append(cond)
                    object.__setattr__(self, "_conds_by_tuple", index)
        return index

    def conditions_of(self, row: Sequence[Value]) -> list[Condition]:
        """The set F of conditions under which data tuple ``row`` appears.

        This is the disjunction whose weight is the tuple's confidence
        (opening of Section 4).  Answered from the cached tuple index —
        one O(|U_R|) grouping pass total, then O(1) per lookup — instead
        of the seed's full scan per call, which made per-tuple confidence
        over a whole result quadratic.
        """
        return list(self.lineage_index().get(tuple(row), ()))

    def variables(self) -> frozenset:
        """All random variables mentioned by any condition (cached)."""
        cached = self.__dict__.get("_variables")
        if cached is None:
            with _CACHE_LOCK:
                cached = self.__dict__.get("_variables")
                if cached is None:
                    out: set = set()
                    for cond, _ in self.rows:
                        out |= cond.variables
                    cached = frozenset(out)
                    object.__setattr__(self, "_variables", cached)
        return cached

    def variables_exceed(self, limit: int) -> bool:
        """True iff this relation mentions more than ``limit`` variables.

        Unlike ``len(self.variables()) > limit`` this stops scanning as
        soon as the limit is crossed, so probing a huge wide relation
        (e.g. a tuple-independent input, one fresh variable per row) is
        O(limit), not O(rows).  A scan that completes caches the full
        variable set for :meth:`variables`.
        """
        cached = self.__dict__.get("_variables")
        if cached is not None:
            return len(cached) > limit
        out: set = set()
        for cond, _ in self.rows:
            out |= cond.variables
            if len(out) > limit:
                return True
        with _CACHE_LOCK:
            if "_variables" not in self.__dict__:
                object.__setattr__(self, "_variables", frozenset(out))
        return False

    def independent_rows(self) -> tuple[tuple[tuple[Value, ...], tuple | None], ...] | None:
        """The rows as ``(values, assignment)`` if tuple-independent, else ``None``.

        Tuple-independent *as stored*: every data tuple appears once,
        under the empty condition (``assignment`` is ``None``) or under a
        single ``(variable, value)`` pair, and no variable serves two
        rows — so whatever W says, the tuples are independent events and
        each one's probability is one W entry.  The screen stops at the
        first offending row.  Rows come in ``repr`` order (the order
        every confidence-closing operator computes in), so arithmetic
        that visits them in sequence is canonical.  The verdict is
        cached like the other lazy caches: built under ``_CACHE_LOCK``,
        published immutable.
        """
        try:
            return self.__dict__["_independent_rows"]
        except KeyError:
            pass
        with _CACHE_LOCK:
            if "_independent_rows" not in self.__dict__:
                object.__setattr__(self, "_independent_rows", self._screen_independent())
            return self.__dict__["_independent_rows"]

    def _screen_independent(self):
        seen: set = set()
        screened = []
        for cond, vals in self.rows:
            if len(cond) > 1:
                return None
            assignment = next(iter(cond.items()), None)
            if assignment is not None:
                if assignment[0] in seen:
                    return None
                seen.add(assignment[0])
            screened.append((vals, assignment))
        if len({vals for vals, _ in screened}) != len(screened):
            return None
        return tuple(sorted(screened, key=lambda row: repr(row[0])))

    def in_world(self, world: Mapping) -> Relation:
        """Instantiate this U-relation in the world given by a total assignment."""
        rows = frozenset(
            vals for cond, vals in self.rows if cond.evaluate(world)
        )
        return Relation(self.columns, rows)

    def _join_index(self, positions: tuple[int, ...]) -> dict[tuple, list[URow]]:
        """Lazy cached hash index on the data values at ``positions``.

        ``natural_join`` probes this on its build side; repeated joins on
        the same key columns reuse the index for free.
        """
        indexes = self.__dict__.get("_join_indexes")
        if indexes is not None:
            index = indexes.get(positions)
            if index is not None:
                return index
        with _CACHE_LOCK:
            indexes = self.__dict__.get("_join_indexes")
            if indexes is None:
                indexes = {}
                object.__setattr__(self, "_join_indexes", indexes)
            index = indexes.get(positions)
            if index is None:
                index = {}
                for cond, vals in self.rows:
                    index.setdefault(tuple(vals[i] for i in positions), []).append(
                        (cond, vals)
                    )
                indexes[positions] = index
        return index

    # ------------------------------------------------------------ translation
    # These are the parsimonious translations of Section 3.
    def select(self, condition: BoolExpr) -> "URelation":
        """[[σ_φ R]] := σ_φ(U_R) — conditions untouched."""
        cols = self.columns
        kept = frozenset(
            (cond, vals)
            for cond, vals in self.rows
            if condition.evaluate(dict(zip(cols, vals)))
        )
        return URelation._trusted(cols, kept)

    def project(self, items: Sequence[ProjectionItem | str]) -> "URelation":
        """[[π_B̄ R]] := π_{D,B̄}(U_R) — D kept, duplicates merged setwise."""
        normalized = normalize_projection(items)
        out_cols = _schema.check_schema(tuple(name for _, name in normalized))
        cols = self.columns
        out = set()
        for cond, vals in self.rows:
            env = dict(zip(cols, vals))
            out.add((cond, tuple(expr.evaluate(env) for expr, _ in normalized)))
        return URelation._trusted(out_cols, frozenset(out))

    def rename(self, mapping: Mapping[str, str]) -> "URelation":
        missing = set(mapping) - set(self.columns)
        if missing:
            raise _schema.SchemaError(f"cannot rename missing attributes {sorted(missing)}")
        new_cols = _schema.check_schema(tuple(mapping.get(c, c) for c in self.columns))
        return URelation._trusted(new_cols, self.rows)

    def product(self, other: "URelation", pool: ConditionPool | None = None) -> "URelation":
        """[[R × S]] — join on condition consistency, union the D values.

        Condition merges go through ``pool`` (interned + memoized), so a
        ``D``-value pair that recurs across candidate tuple pairs is
        merged and hashed once.
        """
        out_cols = _schema.disjoint_union(self.columns, other.columns)
        merge = (pool or _SHARED_POOL).union
        out = set()
        for lcond, lvals in self.rows:
            for rcond, rvals in other.rows:
                merged = merge(lcond, rcond)
                if merged is not None:
                    out.add((merged, lvals + rvals))
        return URelation._trusted(out_cols, frozenset(out))

    def natural_join(self, other: "URelation", pool: ConditionPool | None = None) -> "URelation":
        """Natural join: shared data attributes equal *and* conditions consistent.

        Probes ``other``'s cached join-key index (built once per key
        column set) and merges conditions through the pool, exactly as
        :meth:`product` does.
        """
        out_cols, shared = _schema.natural_join_schema(self.columns, other.columns)
        lpos = _schema.positions(self.columns, shared)
        rpos = _schema.positions(other.columns, shared)
        rkeep = [i for i, c in enumerate(other.columns) if c not in set(shared)]
        by_key = other._join_index(rpos)
        merge = (pool or _SHARED_POOL).union
        out = set()
        for lcond, lvals in self.rows:
            key = tuple(lvals[i] for i in lpos)
            for rcond, rvals in by_key.get(key, ()):
                merged = merge(lcond, rcond)
                if merged is not None:
                    out.add((merged, lvals + tuple(rvals[i] for i in rkeep)))
        return URelation._trusted(out_cols, frozenset(out))

    def union(self, other: "URelation") -> "URelation":
        """[[R ∪ S]] := U_R ∪ U_S."""
        other_aligned = other._align_to(self.columns)
        return URelation._trusted(self.columns, self.rows | other_aligned.rows)

    def difference_complete(self, other: "URelation") -> "URelation":
        """−_c: difference of relations that are complete (certain).

        General difference is *not* expressible parsimoniously on
        U-relations (it is excluded from positive UA); only the
        complete-by-c special case is supported, matching the paper.
        """
        if not self.is_certain or not other.is_certain:
            raise ValueError(
                "difference on U-relations requires both inputs complete (−_c); "
                "positive UA excludes general difference"
            )
        return URelation.from_complete(self.to_complete().difference(other.to_complete()))

    def _align_to(self, columns: tuple[str, ...]) -> "URelation":
        if self.columns == columns:
            return self
        if set(self.columns) != set(columns):
            raise _schema.SchemaError(f"incompatible schemas {self.columns} vs {columns}")
        pos = _schema.positions(self.columns, columns)
        return URelation._trusted(
            columns,
            frozenset((cond, tuple(vals[i] for i in pos)) for cond, vals in self.rows),
        )

    # ------------------------------------------------------------ display
    def as_display_relation(self) -> Relation:
        """Render as a relation with a leading D column (like Figure 1)."""
        rows = [(repr(cond),) + vals for cond, vals in self.rows]
        return Relation.from_rows(("D",) + self.columns, rows)

    def __str__(self) -> str:
        from repro.util.tables import format_table

        rows = sorted(
            ((repr(cond),) + vals for cond, vals in self.rows), key=repr
        )
        return format_table(("D",) + self.columns, rows)
