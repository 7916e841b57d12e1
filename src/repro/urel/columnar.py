"""Columnar U-relations: integer-coded storage with vectorized operators.

The parsimonious translations of Section 3 are pure tuple algebra — no
look at the W table — so nothing forces them through a Python loop per
candidate tuple pair.  This module lowers a :class:`URelation` to a
columnar encoding and runs ``select``/``project``/``rename``/``union``/
``product``/``natural_join`` as NumPy array programs:

* **data columns** are integer-coded against one session-wide value
  dictionary (:class:`ValueCodec`), so value equality is code equality
  across *all* relations of a session — joins and unions never remap;
* **conditions** become an ``(n_rows × n_vars)`` matrix of per-variable
  value codes with ``-1`` for "variable undefined", the same
  domain-coding idea as :class:`repro.confidence.batch._EncodedDnf`
  (codecs for variables known to W are seeded in the W table's domain
  order, so the two coding layers agree);
* **condition consistency** (the product/join translation's ``D``-value
  merge) is one vectorized comparison over candidate pairs:
  ``(L == R) | (L == -1) | (R == -1)`` AND-reduced per row, and the
  merged conditions are ``np.where(L == -1, R, L)``;
* **set semantics** is a lexsort-and-adjacent-compare dedup over the
  concatenated condition+data code matrix (``np.unique(axis=0)`` would
  sort rows as void scalars, which is orders of magnitude slower than
  per-column int64 key passes);
* **product/join pair merges shard across worker processes** when given
  a :class:`~repro.util.parallel.ShardExecutor`: the bounded merge
  blocks that already cap peak memory are grouped into contiguous
  shards by a plan that depends on the operand *row counts* only (never
  the worker count), each shard runs the same module-level kernel the
  serial path runs, survivors concatenate in shard order, and the dedup
  lexsort runs once on the merged result — so sharded results are
  bit-identical to serial ones at every worker count.

A :class:`ColumnarURelation` decodes back to an exactly equal
:class:`URelation` (original value objects, interned conditions) via
:meth:`to_urelation`; the evaluator keeps intermediates columnar through
algebra subtrees and materializes only at confidence / repair-key /
result boundaries.
"""

from __future__ import annotations

import operator
import threading
from collections.abc import Mapping, Sequence
from functools import partial, reduce
from typing import Optional

import numpy as np

from repro.algebra import schema as _schema
from repro.algebra.expressions import (
    ARITH_FUNCS,
    CMP_FUNCS,
    And,
    Arith,
    Attr,
    BoolConst,
    BoolExpr,
    Cmp,
    Const,
    Not,
    Or,
    Value,
)
from repro.algebra.relations import ProjectionItem, normalize_projection
from repro.algebra.tree import fold
from repro.urel.conditions import TOP, Condition, ConditionPool, Var
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.parallel import SERIAL_EXECUTOR

__all__ = ["ValueCodec", "ColumnarContext", "ColumnarURelation"]

_PAIR_MERGE_BUDGET = 1 << 24
"""Int64 cells a product/join pair-merge may gather per block (~128 MB)."""

_CODEC_LOCK = threading.Lock()
"""One lock for codec *mutations* (reads stay lock-free).

A session's evaluator — and with it one :class:`ColumnarContext` — is
shared by every thread querying that session, so two threads can race
:meth:`ValueCodec.code` on unseen values.  Unlike the idempotent lazy
caches of :mod:`repro.urel.urelation`, the codec's miss path is NOT
idempotent: both racers read ``len(values)`` before either appends, and
two *different* values end up sharing one integer code — which the whole
engine then treats as value equality.  The lock covers the miss path
(and the cross-type conflation counter, whose lost updates would
silently skip the taint fallback), while the hit path — a dict probe of
a key that, once present, never changes — needs no lock."""


class ValueCodec:
    """Append-only bijection between values and small integer codes.

    Codes are handed out in first-seen order and never change, so arrays
    encoded earlier stay valid as the codec grows — codecs can be shared
    freely across relations and operator results.
    """

    __slots__ = ("values", "index", "has_nonreflexive", "conflation_events", "_lookup")

    def __init__(self, seed: Sequence[Value] = ()):
        self.values: list = []  # detlint: guarded-by(_CODEC_LOCK)
        self.index: dict = {}  # detlint: guarded-by(_CODEC_LOCK)
        self._lookup = None  # memoized object ndarray over values
        # True once any coded value is not equal to itself (NaN): dict
        # lookup then uses identity-or-== semantics while the scalar
        # operators use pure ==, so integer-code comparisons must be
        # disabled to keep the two engines setwise identical.
        self.has_nonreflexive = False  # detlint: guarded-by(_CODEC_LOCK)
        # Incremented whenever a coded value lands in an ==-equality
        # class already holding a *different type* (3 vs 3.0 vs
        # Fraction(3)): decoding such a cell substitutes the canonical
        # representative, which behaves identically under == / hashing
        # but can differ under *arithmetic* (float rounding vs int
        # exactness).  Encodes snapshot the counter to learn whether
        # *their* cells are affected — the taint is per relation, not a
        # session-wide kill switch.
        self.conflation_events = 0  # detlint: guarded-by(_CODEC_LOCK)
        # Construction is thread-private (the codec is published only
        # after __init__ returns), so seeding bypasses _CODEC_LOCK —
        # which var_codec may already hold around this constructor.
        for value in seed:
            got = self.index.get(value)
            if got is None:
                self._assign(value)
            elif type(self.values[got]) is not type(value):
                self.conflation_events += 1

    @property
    def has_conflation(self) -> bool:
        """Whether any cross-type ==-conflation has occurred so far."""
        return self.conflation_events > 0

    def clone(self) -> "ValueCodec":
        """A private codec agreeing with this one on every code so far.

        The clone and the original diverge independently afterwards —
        the isolation :meth:`ColumnarContext.snapshot` needs.  Copied
        under :data:`_CODEC_LOCK`: a clone torn against a concurrent
        :meth:`code` miss could hold an index entry pointing past its
        copied values list.
        """
        clone = ValueCodec()
        with _CODEC_LOCK:
            clone.values = list(self.values)
            clone.index = dict(self.index)
            clone.has_nonreflexive = self.has_nonreflexive
            clone.conflation_events = self.conflation_events
        return clone

    def __len__(self) -> int:
        return len(self.values)

    def object_array(self):
        """The values as an object ndarray for fancy-indexed decode.

        Memoized and rebuilt only when the codec has grown since the
        last call, so decode cost is amortized O(new values) rather than
        O(all values ever coded) per materialization.
        """
        arr = self._lookup
        if arr is None or arr.shape[0] < len(self.values):
            arr = np.fromiter(self.values, dtype=object, count=len(self.values))
            self._lookup = arr
        return arr

    def _assign(self, value) -> int:  # detlint: holds(_CODEC_LOCK)
        """Append ``value`` with a fresh code.  Callers hold the lock
        (or own the codec privately, as during construction); the list
        append is published *before* the index entry so a lock-free
        reader that sees the code can always decode it."""
        got = len(self.values)
        self.values.append(value)
        self.index[value] = got
        if not (value == value):
            self.has_nonreflexive = True
        return got

    def code(self, value) -> int:
        """The code for ``value``, assigning a fresh one if unseen.

        Thread-safe: assignment happens under :data:`_CODEC_LOCK` (the
        hit path stays lock-free — an index entry, once present, never
        changes).  Two unlocked racers would both read ``len(values)``
        before either appends and hand two different values one code,
        which the engine would then read as value equality.
        """
        got = self.index.get(value)
        if got is None:
            with _CODEC_LOCK:
                got = self.index.get(value)
                if got is None:
                    return self._assign(value)
        if type(self.values[got]) is not type(value):
            with _CODEC_LOCK:
                self.conflation_events += 1
        return got


class ColumnarContext:
    """Session-wide coding state: one value codec, per-variable codecs.

    Owned by an evaluator; every :class:`ColumnarURelation` it produces
    shares this context, which is what makes binary operators remap-free.
    ``w`` seeds variable codecs with the W-table domain order (matching
    the integer coding of :mod:`repro.confidence.batch`); ``pool``
    interns the conditions produced on decode.
    """

    __slots__ = ("w", "pool", "values", "min_rows", "max_vars", "_var_codecs")

    def __init__(
        self,
        w: VariableTable,
        pool: ConditionPool | None = None,
        min_rows: int = 32,
        max_vars: int = 64,
    ):
        self.w = w
        self.pool = pool if pool is not None else ConditionPool()
        self.values = ValueCodec()
        self.min_rows = min_rows
        self.max_vars = max_vars
        self._var_codecs: dict[Var, ValueCodec] = {}

    def snapshot(self, w: VariableTable, pool: ConditionPool) -> "ColumnarContext":
        """A private context for a database copy, warm but isolated.

        ``w``/``pool`` are the *copy's* table and pool (a context must
        code against the W it will actually see grow); the value and
        per-variable codecs are cloned, so the copy starts with every
        code this context ever assigned and then diverges independently.
        Relations memoize encodings per context identity, so nothing
        encoded against the original leaks into the snapshot.
        """
        clone = ColumnarContext(w, pool, self.min_rows, self.max_vars)
        clone.values = self.values.clone()
        with _CODEC_LOCK:
            var_codecs = dict(self._var_codecs)
        clone._var_codecs = {var: codec.clone() for var, codec in var_codecs.items()}
        return clone

    def worth_encoding(self, urel: URelation) -> bool:
        """Whether ``urel`` is inside the columnar engine's envelope.

        Outside it the indexed scalar path wins: relations smaller than
        ``min_rows`` are bound by per-operator array setup, and relations
        mentioning more than ``max_vars`` variables (tuple-independent
        inputs have one *per row*) would make the dense
        ``rows × variables`` condition matrix — and every vectorized
        merge over it — super-linear in the relation size.  The
        evaluator consults this per relation and quietly stays scalar
        when it returns False; results are identical either way.  The
        width probe early-exits, so asking about a huge wide relation
        costs O(max_vars), not a full variable scan.

        It is asked about the relations the operators meet, after
        selection pushdown (`repro.algebra.pushdown`): a stored relation
        under a pushed copy is rated whole and, inside the envelope,
        filtered columnar — the filtered result is columnar-born and
        never re-rated — while a scalar one is filtered first and its
        join rates the *filtered* operand, which may now fit (a
        tuple-independent relation filtered below ``max_vars`` rows).
        """
        return len(urel.rows) >= self.min_rows and not urel.variables_exceed(self.max_vars)

    def var_codec(self, var: Var) -> ValueCodec:
        codec = self._var_codecs.get(var)
        if codec is None:
            with _CODEC_LOCK:
                codec = self._var_codecs.get(var)
                if codec is None:
                    codec = ValueCodec(self.w.domain(var) if var in self.w else ())
                    self._var_codecs[var] = codec
        return codec

    def encode(self, urel: URelation) -> "ColumnarURelation":
        """Lower ``urel`` to columnar form.

        Memoized on the relation itself (next to its other lazy caches),
        so the encoding lives exactly as long as the relation does —
        nothing is pinned by the context.  The memo holds up to two
        (context, encoding) pairs: URelation objects are shared between
        a database and its private-context copies, and a scratch
        evaluator (``explain``) encoding through a snapshot context must
        not evict the long-lived session's entry — nor the other way
        around.
        """
        for ctx, encoded in urel.__dict__.get("_columnar", ()):
            if ctx is self:
                return encoded
        events_before = self.values.conflation_events
        cond_vars = tuple(sorted(urel.variables(), key=repr))
        n, k, v = len(urel.rows), len(urel.columns), len(cond_vars)
        data = np.empty((n, k), dtype=np.int64)
        conds = np.full((n, v), -1, dtype=np.int64)
        var_pos = {var: j for j, var in enumerate(cond_vars)}
        var_codecs = [self.var_codec(var) for var in cond_vars]
        code = self.values.code
        for i, (cond, vals) in enumerate(urel.rows):
            for j in range(k):
                data[i, j] = code(vals[j])
            for var, value in cond.items():
                j = var_pos[var]
                conds[i, j] = var_codecs[j].code(value)
        result = ColumnarURelation(
            self,
            urel.columns,
            data,
            cond_vars,
            conds,
            # Tainted when (a) a cross-type collision during THIS encode
            # means some cell decodes to the wrong arithmetic type, or
            # (b) a condition variable's domain holds a non-reflexive
            # value (NaN): the scalar Condition.union calls such values
            # inconsistent with themselves (nan != nan), while code
            # equality would call them consistent — merges must go
            # through the scalar operators.
            tainted=(
                self.values.conflation_events != events_before
                or any(codec.has_nonreflexive for codec in var_codecs)
            ),
        )
        result._decoded = urel  # decoding must return the original object
        # Keep this context's entry plus the most recent *other* one
        # (bounded at two: at most one dead scratch context can linger
        # per relation, and a session/scratch alternation never thrashes).
        others = tuple(
            entry for entry in urel.__dict__.get("_columnar", ()) if entry[0] is not self
        )[-1:]
        object.__setattr__(urel, "_columnar", others + ((self, result),))
        return result


class ColumnarURelation:
    """A U-relation in columnar integer-coded form.

    ``data`` is an ``(n × |columns|)`` int64 matrix of codes into
    ``ctx.values``; ``conds`` is an ``(n × |cond_vars|)`` int64 matrix of
    per-variable value codes, ``-1`` meaning the condition leaves that
    variable undefined.  Rows are setwise unique.  Instances are
    immutable once constructed; operators return new instances sharing
    the same :class:`ColumnarContext`.
    """

    __slots__ = (
        "ctx",
        "columns",
        "data",
        "cond_vars",
        "conds",
        "tainted",
        "_decoded",
        "_columns_cache",
    )

    def __init__(
        self,
        ctx: ColumnarContext,
        columns: tuple[str, ...],
        data,
        cond_vars: tuple[Var, ...],
        conds,
        tainted: bool = False,
    ):
        self.ctx = ctx
        self.columns = columns
        self.data = data
        self.cond_vars = cond_vars
        self.conds = conds
        # True when some data cell's code belongs to a cross-type
        # ==-conflated equality class: decoding then substitutes a
        # representative of a different type, so expression evaluation
        # over decoded objects must defer to the scalar path.  Inherited
        # by operator results.
        self.tainted = tainted
        self._decoded: Optional[URelation] = None
        self._columns_cache: dict[int, object] = {}

    # ------------------------------------------------------------ inspection
    def __len__(self) -> int:
        return self.data.shape[0]

    def to_urelation(self) -> URelation:
        """Decode back to a setwise-equal scalar :class:`URelation`.

        Values decode to the codec's canonical objects: the first-seen
        representative of each ``==``-equality class *session-wide*.
        Joins require code equality to mirror value equality, so values
        that compare equal across types (``3 == 3.0 == Fraction(3)``)
        necessarily share one code — decoded results are always ``==``
        to the scalar operators' (the invariant the differential suite
        asserts) but may carry a different equal representative than the
        per-relation objects the scalar path preserves.  Conditions are
        interned through the context pool.  Memoized — repeated
        materialization is free.
        """
        if self._decoded is None:
            n = self.data.shape[0]
            # Data: one fancy-indexed gather through an object array, then
            # a C-level map(tuple, ...) — no per-element Python loop.
            if n and self.data.shape[1]:
                lookup = self.ctx.values.object_array()
                data_tuples = list(map(tuple, lookup[self.data].tolist()))
            else:
                data_tuples = [()] * n
            self._decoded = URelation._trusted(
                self.columns, frozenset(zip(self._decoded_conditions(), data_tuples))
            )
        return self._decoded

    def _decoded_conditions(self) -> list[Condition]:
        """One interned :class:`Condition` per row — built once per
        *distinct* condition row (group ids), then gathered."""
        n, v = self.conds.shape
        if n == 0 or v == 0:
            return [TOP] * n
        ids = _group_ids(self.conds)
        n_groups = int(ids.max()) + 1
        representatives = np.empty(n_groups, dtype=np.int64)
        representatives[ids] = np.arange(n)
        var_values = [self.ctx.var_codec(var).values for var in self.cond_vars]
        cond_vars = self.cond_vars
        intern = self.ctx.pool.intern
        group_conds = []
        for row in self.conds[representatives].tolist():
            mapping = {
                cond_vars[j]: var_values[j][c] for j, c in enumerate(row) if c >= 0
            }
            group_conds.append(intern(Condition._from_map(mapping)) if mapping else TOP)
        gathered = np.fromiter(group_conds, dtype=object, count=n_groups)
        return gathered[ids].tolist()

    # ------------------------------------------------------------ internals
    def _replace(
        self, columns, data, cond_vars, conds, tainted: bool | None = None
    ) -> "ColumnarURelation":
        return ColumnarURelation(
            self.ctx,
            columns,
            data,
            cond_vars,
            conds,
            tainted=self.tainted if tainted is None else tainted,
        )

    def _deduped(
        self, columns, data, cond_vars, conds, tainted: bool | None = None
    ) -> "ColumnarURelation":
        """Construct a result with setwise-unique rows."""
        n = data.shape[0]
        width = data.shape[1] + conds.shape[1]
        if n > 1:
            if width == 0:
                data, conds = data[:1], conds[:1]
            else:
                v = conds.shape[1]
                merged = _unique_rows(np.hstack([conds, data]))
                conds, data = merged[:, :v], merged[:, v:]
        return self._replace(columns, data, cond_vars, conds, tainted=tainted)

    def _column_objects(self, position: int):
        """The decoded values of one data column, as an object ndarray."""
        cached = self._columns_cache.get(position)
        if cached is None:
            values = self.ctx.values.values
            codes = self.data[:, position].tolist()
            cached = np.fromiter(
                (values[c] for c in codes), dtype=object, count=len(codes)
            )
            self._columns_cache[position] = cached
        return cached

    def _row_envs(self) -> list[dict[str, Value]]:
        """Decoded attribute-name environments, for non-vectorizable paths."""
        values = self.ctx.values.values
        cols = self.columns
        return [
            dict(zip(cols, (values[c] for c in row))) for row in self.data.tolist()
        ]

    def _aligned_conds(self, other: "ColumnarURelation"):
        """Both condition matrices over the union variable layout."""
        if self.cond_vars == other.cond_vars:
            return self.cond_vars, self.conds, other.conds
        mine = set(self.cond_vars)
        out_vars = self.cond_vars + tuple(
            var for var in other.cond_vars if var not in mine
        )
        return out_vars, _project_conds(self, out_vars), _project_conds(other, out_vars)

    def _pair_merge(
        self,
        other: "ColumnarURelation",
        out_cols: tuple[str, ...],
        li,
        ri,
        rkeep: Sequence[int],
        executor,
    ) -> "ColumnarURelation":
        """Merge candidate row pairs: vectorized consistency check + union.

        ``li``/``ri`` index candidate pairs into ``self``/``other``; the
        pairs whose conditions are consistent survive with the pointwise
        condition union and the concatenated (kept) data columns.

        Processed in bounded blocks: the gathered
        ``(pairs × union-variables)`` condition matrices are the
        dominant transient allocation, so capping the block size keeps
        peak memory at O(block × width) plus the surviving rows —
        instead of materializing every candidate pair at once.

        The pair index range is cut by
        :meth:`~repro.util.parallel.ShardExecutor.plan_pairs` — a
        function of the pair count only, never the worker count — and
        each contiguous shard runs its (still bounded) block loop as one
        ``executor`` task; shard survivors are concatenated in shard
        order, so the result is bit-identical at every worker count.
        The dedup lexsort below runs once, on the merged survivors.
        """
        out_vars, left_conds, right_conds = self._aligned_conds(other)
        rkeep = list(rkeep)
        n_pairs = int(li.shape[0])
        block = _pair_block_size(len(out_vars), self.data.shape[1], len(rkeep))
        shards = executor.plan_pairs(n_pairs)
        if len(shards) > 1:
            parts = executor.map(
                _indexed_pairs_shard,
                [
                    (
                        left_conds,
                        right_conds,
                        self.data,
                        other.data,
                        rkeep,
                        li[start:stop],
                        ri[start:stop],
                        block,
                    )
                    for start, stop in shards
                ],
                validate=False,  # pure int64 arrays: picklable by construction
            )
            data, conds = _stack_parts([p[0] for p in parts], [p[1] for p in parts])
        else:
            data, conds = _indexed_pairs_shard(
                left_conds, right_conds, self.data, other.data, rkeep, li, ri, block
            )
        return self._deduped(
            out_cols, data, out_vars, conds, tainted=self.tainted or other.tainted
        )

    # ------------------------------------------------------------ operators
    # The same parsimonious translations as URelation, array-at-a-time.
    def select(self, condition: BoolExpr) -> "ColumnarURelation":
        """[[σ_φ R]] — vectorized mask where φ compiles, row-at-a-time else."""
        if self.tainted:
            # Some cell decodes to a different-typed ==-representative,
            # which can behave differently under arithmetic than the
            # relation's own values (int 3 vs float 3.0 at 1e23 scale):
            # evaluate the predicate on the scalar relation — the
            # original objects, for base-encoded relations — and
            # re-encode the result.
            return self.ctx.encode(self.to_urelation().select(condition))
        try:
            mask = _vector_mask(condition, self)
        except Exception:
            # The vectorized path evaluates every operand eagerly over
            # all rows, so a guarded expression (``B != 0 and A/B > 1``)
            # can raise where the scalar operators' short-circuit would
            # not.  Row-at-a-time evaluation below shares the scalar
            # semantics exactly — including *propagating* whatever an
            # unguarded predicate raises.
            mask = None
        if mask is None:
            envs = self._row_envs()
            mask = np.fromiter(
                (condition.evaluate(env) for env in envs), dtype=bool, count=len(envs)
            )
        return self._replace(
            self.columns, self.data[mask], self.cond_vars, self.conds[mask]
        )

    def project(self, items: Sequence[ProjectionItem | str]) -> "ColumnarURelation":
        """[[π_B̄ R]] — column gather for plain attributes, eval + re-encode else."""
        normalized = normalize_projection(items)
        out_cols = _schema.check_schema(tuple(name for _, name in normalized))
        col_of = {c: i for i, c in enumerate(self.columns)}
        plain = all(
            isinstance(expr, Attr) and expr.name in col_of for expr, _ in normalized
        )
        if plain:
            take = [col_of[expr.name] for expr, _ in normalized]
            data = self.data[:, take]
        elif self.tainted:
            # Computed projections evaluate expressions over decoded
            # objects; same mixed-type hazard (and fix) as in select.
            return self.ctx.encode(self.to_urelation().project(list(items)))
        else:
            envs = self._row_envs()
            code = self.ctx.values.code
            events_before = self.ctx.values.conflation_events
            data = np.empty((len(envs), len(normalized)), dtype=np.int64)
            for i, env in enumerate(envs):
                for j, (expr, _) in enumerate(normalized):
                    data[i, j] = code(expr.evaluate(env))
            if self.ctx.values.conflation_events != events_before:
                # A computed value just collided cross-type with an
                # existing code (its cell would decode to the wrong
                # type) — redo on the scalar path, which keeps the
                # computed objects themselves.
                return self.ctx.encode(self.to_urelation().project(list(items)))
        return self._deduped(out_cols, data, self.cond_vars, self.conds)

    def rename(self, mapping: Mapping[str, str]) -> "ColumnarURelation":
        """ρ — free: code matrices are shared, only the schema changes."""
        missing = set(mapping) - set(self.columns)
        if missing:
            raise _schema.SchemaError(
                f"cannot rename missing attributes {sorted(missing)}"
            )
        new_cols = _schema.check_schema(
            tuple(mapping.get(c, c) for c in self.columns)
        )
        return self._replace(new_cols, self.data, self.cond_vars, self.conds)

    def union(self, other: "ColumnarURelation") -> "ColumnarURelation":
        """[[R ∪ S]] — align layouts, stack, dedupe."""
        odata = other.data
        if other.columns != self.columns:
            if set(other.columns) != set(self.columns):
                raise _schema.SchemaError(
                    f"incompatible schemas {other.columns} vs {self.columns}"
                )
            odata = odata[:, list(_schema.positions(other.columns, self.columns))]
        out_vars, mine, theirs = self._aligned_conds(other)
        return self._deduped(
            self.columns,
            np.vstack([self.data, odata]),
            out_vars,
            np.vstack([mine, theirs]),
            tainted=self.tainted or other.tainted,
        )

    def _all_pairs_merge(
        self,
        other: "ColumnarURelation",
        out_cols: tuple[str, ...],
        rkeep: Sequence[int],
        executor,
    ) -> "ColumnarURelation":
        """Merge every (left, right) row pair, generating pairs in blocks.

        The pair *index arrays* themselves are O(n1·n2); materializing
        them up front would defeat the blocked merge bound, so left-row
        blocks each generate their own repeat/tile slice — and the shard
        unit is a contiguous *left-row* range (pairs are laid out
        left-row-major), each shard covering at least
        ``min_shard_pairs`` pairs.  The schedule is a function of the
        two row counts and the plan parameters only; survivors merge in
        shard order and the dedup lexsort runs once on the result.
        """
        out_vars, left_conds, right_conds = self._aligned_conds(other)
        rkeep = list(rkeep)
        n1, n2 = len(self), len(other)
        block = _pair_block_size(len(out_vars), self.data.shape[1], len(rkeep))
        shards = executor.plan_all_pairs(n1, n2)
        if len(shards) > 1:
            # Each task receives only its contiguous left-row slice
            # (range rebased to 0) — the shard unit IS a left-row range,
            # so shipping the whole left operand k times would be pure
            # serialization waste.  The right operand is read in full by
            # every shard and travels whole.
            parts = executor.map(
                _all_pairs_shard,
                [
                    (
                        left_conds[start:stop],
                        right_conds,
                        self.data[start:stop],
                        other.data,
                        rkeep,
                        0,
                        stop - start,
                        n2,
                        block,
                    )
                    for start, stop in shards
                ],
                validate=False,  # pure int64 arrays: picklable by construction
            )
            data, conds = _stack_parts([p[0] for p in parts], [p[1] for p in parts])
        else:
            data, conds = _all_pairs_shard(
                left_conds, right_conds, self.data, other.data, rkeep, 0, n1, n2, block
            )
        return self._deduped(
            out_cols, data, out_vars, conds, tainted=self.tainted or other.tainted
        )

    def product(self, other: "ColumnarURelation", executor=None) -> "ColumnarURelation":
        """[[R × S]] — all pairs, vectorized condition merge.

        ``executor`` (a :class:`~repro.util.parallel.ShardExecutor`;
        default: the process-wide serial one) runs the pair-merge
        shards; results are bit-identical at every worker count.
        """
        out_cols = _schema.disjoint_union(self.columns, other.columns)
        return self._all_pairs_merge(
            other, out_cols, range(len(other.columns)), executor or SERIAL_EXECUTOR
        )

    def natural_join(
        self, other: "ColumnarURelation", executor=None
    ) -> "ColumnarURelation":
        """⋈ — hash-free key matching via sort + searchsorted, then merge.

        Equal data values share one session-wide code, so key equality is
        integer equality; candidate pairs come out of a grouped
        repeat/tile over the sorted build side.  ``executor`` shards the
        candidate-pair merge exactly as in :meth:`product`.
        """
        out_cols, shared = _schema.natural_join_schema(self.columns, other.columns)
        rkeep = [i for i, c in enumerate(other.columns) if c not in set(shared)]
        n1, n2 = len(self), len(other)
        executor = executor or SERIAL_EXECUTOR
        if not shared or n1 == 0 or n2 == 0:
            return self._all_pairs_merge(other, out_cols, rkeep, executor)
        lpos = list(_schema.positions(self.columns, shared))
        rpos = list(_schema.positions(other.columns, shared))
        stacked = np.vstack([self.data[:, lpos], other.data[:, rpos]])
        inverse = _group_ids(stacked)
        left_ids, right_ids = inverse[:n1], inverse[n1:]
        order = np.argsort(right_ids, kind="stable")
        sorted_ids = right_ids[order]
        starts = np.searchsorted(sorted_ids, left_ids, side="left")
        ends = np.searchsorted(sorted_ids, left_ids, side="right")
        counts = ends - starts
        total = int(counts.sum())
        li = np.repeat(np.arange(n1), counts)
        offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
        within = np.arange(total) - np.repeat(offsets, counts)
        ri = order[np.repeat(starts, counts) + within]
        return self._pair_merge(other, out_cols, li, ri, rkeep, executor)


# --------------------------------------------------------------------------
# Pair-merge kernels.  Module level so :meth:`ShardExecutor.map` can pickle
# them to worker processes; the serial path runs the very same functions in
# process, which is what makes sharded results bit-identical by construction.
# --------------------------------------------------------------------------


def _pair_block_size(n_cond_vars: int, n_left_cols: int, n_keep: int) -> int:
    """Pairs per bounded merge block for the given output layout.

    Cells simultaneously live per pair: both gathered condition matrices
    + the merged output (3v int64) + the undef/ok bool masks (~v/8 each,
    round up to v) + the gathered data columns.
    """
    width = max(1, 4 * n_cond_vars + n_left_cols + n_keep)
    return max(1, _PAIR_MERGE_BUDGET // width)


def _merge_pair_block(left_conds, right_conds, left_data, right_data, rkeep, bl, br):
    """Merge one block of candidate pairs; survivors as ``(data, conds)``."""
    left, right = left_conds[bl], right_conds[br]
    left_undef = left == -1
    ok = (left_undef | (right == -1) | (left == right)).all(axis=1)
    if not ok.all():
        bl, br = bl[ok], br[ok]
        left, right, left_undef = left[ok], right[ok], left_undef[ok]
    conds = np.where(left_undef, right, left)
    data = np.hstack([left_data[bl], right_data[br][:, rkeep]])
    return data, conds


def _stack_parts(data_parts, cond_parts):
    if len(data_parts) == 1:
        return data_parts[0], cond_parts[0]
    return np.vstack(data_parts), np.vstack(cond_parts)


def _indexed_pairs_shard(
    left_conds, right_conds, left_data, right_data, rkeep, li, ri, block
):
    """One contiguous shard of an indexed pair merge (join candidates).

    Runs the bounded block loop over its slice of the pair index arrays;
    an empty slice still produces correctly-shaped empty outputs.
    """
    data_parts, cond_parts = [], []
    for start in range(0, max(int(li.shape[0]), 1), block):
        data, conds = _merge_pair_block(
            left_conds,
            right_conds,
            left_data,
            right_data,
            rkeep,
            li[start : start + block],
            ri[start : start + block],
        )
        data_parts.append(data)
        cond_parts.append(conds)
    return _stack_parts(data_parts, cond_parts)


def _all_pairs_shard(
    left_conds, right_conds, left_data, right_data, rkeep, row_start, row_stop, n_right, block
):
    """One contiguous left-row range of an all-pairs (product) merge.

    Generates its own repeat/tile pair indices per bounded sub-block, so
    the O(rows × n_right) index arrays never materialize at once — and
    never cross a process boundary at all.  Each sub-block's pairs then
    run through the same ``block``-bounded gather loop as the indexed
    path: when ``n_right`` alone exceeds the pair budget (one left row's
    pairs outgrow a block), the inner loop re-cuts them, keeping the
    gathered matrices under the ~128MB transient cap regardless of
    operand shape.
    """
    rows_per_block = max(1, block // max(n_right, 1))
    data_parts, cond_parts = [], []
    start = row_start
    while True:
        stop = min(start + rows_per_block, row_stop)
        li = np.repeat(np.arange(start, stop), n_right)
        ri = np.tile(np.arange(n_right), max(stop - start, 0))
        data, conds = _indexed_pairs_shard(
            left_conds, right_conds, left_data, right_data, rkeep, li, ri, block
        )
        data_parts.append(data)
        cond_parts.append(conds)
        start = stop
        if start >= row_stop:
            break
    return _stack_parts(data_parts, cond_parts)


def _row_order(matrix):
    """A lexicographic row ordering (last column is the primary key —
    any total order works, set semantics only needs grouping)."""
    return np.lexsort(matrix.T)


def _unique_rows(matrix):
    """The distinct rows of an int64 matrix with ≥1 column.

    Equivalent to ``np.unique(matrix, axis=0)`` but via per-column
    ``lexsort`` passes instead of a void-dtype row sort, which keeps the
    comparison loop in int64 C code.
    """
    sorted_rows = matrix[_row_order(matrix)]
    keep = np.empty(sorted_rows.shape[0], dtype=bool)
    keep[0] = True
    np.any(sorted_rows[1:] != sorted_rows[:-1], axis=1, out=keep[1:])
    return sorted_rows[keep]


def _group_ids(matrix):
    """One integer id per row, equal rows sharing an id (≥1 column)."""
    n = matrix.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = _row_order(matrix)
    sorted_rows = matrix[order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.any(sorted_rows[1:] != sorted_rows[:-1], axis=1, out=boundary[1:])
    ids = np.empty(n, dtype=np.int64)
    ids[order] = np.cumsum(boundary) - 1
    return ids


def _project_conds(rel: ColumnarURelation, out_vars: tuple[Var, ...]):
    """``rel``'s condition matrix re-laid-out over ``out_vars``."""
    pos = {var: j for j, var in enumerate(rel.cond_vars)}
    out = np.full((len(rel), len(out_vars)), -1, dtype=np.int64)
    for j, var in enumerate(out_vars):
        source = pos.get(var)
        if source is not None:
            out[:, j] = rel.conds[:, source]
    return out


# --------------------------------------------------------------------------
# Predicate compilation: BoolExpr → boolean mask (None where not compilable)
# --------------------------------------------------------------------------


def _vector_mask(expr: BoolExpr, rel: ColumnarURelation):
    """Compile a selection predicate to a boolean mask, or ``None``.

    Equality atoms between attributes and constants compare integer
    codes directly (value equality ⇔ code equality under the shared
    codec); ordered comparisons and arithmetic run elementwise over
    decoded object arrays.  Any unsupported shape returns ``None`` and
    the caller falls back to per-row evaluation — semantics are
    identical either way.
    """
    return fold(expr, _MASK_HANDLERS, "columnar select", rel)


# A term lowers to ``(codes, objects)`` — ``None`` when it has no lowering.
# ``codes`` is a column's code vector or a constant's code (``None`` for a
# computed term); ``objects()`` decodes to an object ndarray / scalar only
# when called, so an ``=`` between coded operands never decodes a column.


def _attr_operand(rel: ColumnarURelation, term: Attr):
    if term.name not in rel.columns:
        return None
    position = rel.columns.index(term.name)
    return rel.data[:, position], partial(rel._column_objects, position)


def _const_operand(rel: ColumnarURelation, term: Const):
    # A constant never seen by the codec gets the sentinel ``-2``: it
    # cannot equal any row's code (``-1`` is taken by "undefined" in
    # condition matrices, never appears in data columns either way).
    return rel.ctx.values.index.get(term.value, -2), lambda: term.value


def _arith_operand(rel: ColumnarURelation, term: Arith, left, right):
    if left is None or right is None:
        return None
    value = ARITH_FUNCS[term.op](left[1](), right[1]())
    return None, lambda: value


def _cmp_mask(rel: ColumnarURelation, atom: Cmp, left, right):
    if left is None or right is None:
        return None
    # Fast path: =/!= over attributes/constants needs no decoding at all.
    # Constant-vs-constant never compares codes: two distinct constants
    # the codec has not seen share the sentinel and would spuriously
    # compare equal.  With a NaN anywhere in the codec, code equality no
    # longer implies value == value; the decoded path's elementwise ==
    # matches the scalar operators.
    if (
        atom.op in ("=", "!=")
        and left[0] is not None
        and right[0] is not None
        and not (isinstance(atom.left, Const) and isinstance(atom.right, Const))
        and not rel.ctx.values.has_nonreflexive
    ):
        mask = _as_mask(left[0] == right[0], len(rel))
        return mask if atom.op == "=" else ~mask
    return _as_mask(CMP_FUNCS[atom.op](left[1](), right[1]()), len(rel))


def _as_mask(mask, n: int):
    """Broadcast a constant truth value (constant atom, Boolean literal) to a full mask."""
    if isinstance(mask, np.ndarray) and mask.shape:
        return mask.astype(bool, copy=False)
    return np.full(n, bool(mask), dtype=bool)


def _junction_mask(combine, rel: ColumnarURelation, node, *masks):
    if any(mask is None for mask in masks):
        return None
    return reduce(combine, masks)


_MASK_HANDLERS = {
    Attr: _attr_operand,
    Const: _const_operand,
    Arith: _arith_operand,
    BoolConst: lambda rel, node: _as_mask(node.value, len(rel)),
    Cmp: _cmp_mask,
    Not: lambda rel, node, inner: None if inner is None else ~inner,
    And: partial(_junction_mask, operator.and_),
    Or: partial(_junction_mask, operator.or_),
}
