"""The columnar U-relation core against the scalar reference path.

Three layers of evidence that the vectorized operators are a pure
performance change:

* operator-level differential tests (fixed and hypothesis-random
  relations) — every columnar operator result decodes to a URelation
  setwise identical to the scalar operator's;
* evaluator-level differential tests — whole random query trees produce
  identical U-relations on the columnar engine and on the scalar
  operators alone (:func:`conftest.scalar_only`), including through the
  engine facade with exact confidences on top;
* the supporting machinery: Condition sharing/early-exit fast paths,
  the ConditionPool, the URelation trusted-constructor caches, and the
  near-linear ``confidence_all`` scaling the tuple index buys.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import ENGINES, on_engine
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.algebra.builder import query, rel
from repro.algebra.expressions import col, lit
from repro.urel.columnar import ColumnarContext
from repro.urel.conditions import TOP, Condition, ConditionPool
from repro.urel.evaluate import UEvaluator
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable



def _scalar_and_columnar(db: UDatabase, q):
    """``q`` over private copies of ``db``: scalar operators only, then columnar."""
    return tuple(
        UEvaluator(on_engine(engine, db), copy_db=True).evaluate(q).relation
        for engine in ("scalar", "columnar")
    )


# ---------------------------------------------------------------- fixtures
def _variable_table(n_vars: int = 6) -> VariableTable:
    w = VariableTable()
    for i in range(n_vars):
        w.add(("x", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})
    return w


def _random_urel(rng: random.Random, columns: tuple[str, ...], n: int) -> URelation:
    rows = []
    for _ in range(n):
        cond = Condition(
            {("x", rng.randint(0, 5)): rng.randint(0, 1) for _ in range(rng.randint(0, 2))}
        )
        rows.append((cond, tuple(rng.randint(0, 3) for _ in columns)))
    return URelation.from_rows(columns, rows)


def _random_udb(seed: int, n_rows: int = 48) -> UDatabase:
    # Above ColumnarContext.min_rows, so evaluator-level differential
    # tests exercise the columnar operators rather than the fallback.
    rng = random.Random(seed)
    w = _variable_table()
    db = UDatabase(w=w)
    db.set_relation("R", _random_urel(rng, ("A", "B"), n_rows))
    db.set_relation("S", _random_urel(rng, ("B", "C"), n_rows))
    return db


def _queries():
    return [
        rel("R").select(col("A") >= lit(1)),
        rel("R").select(col("B").eq(2)),
        rel("R").select((col("A") + col("B")) <= lit(3)),
        rel("R").project(["A"]),
        rel("R").project([(col("A") * col("B"), "M")]),
        rel("R").rename({"A": "X"}),
        rel("R").join(rel("S")),
        rel("R").product(rel("S").rename({"B": "D", "C": "E"})),
        rel("R").project(["B"]).union(rel("S").project(["B"])),
        rel("R").join(rel("S")).select(col("C") > lit(0)).project(["A", "C"]),
        rel("R").join(rel("S")).project(["A"]).union(rel("R").project(["A"])),
    ]


# ------------------------------------------------- operator-level differential
class TestColumnarOperators:
    def test_roundtrip_returns_original_object(self):
        db = _random_udb(0)
        ctx = ColumnarContext(db.w)
        urel = db.relation("R")
        assert ctx.encode(urel).to_urelation() is urel

    def test_encode_is_memoized(self):
        db = _random_udb(1)
        ctx = ColumnarContext(db.w)
        urel = db.relation("R")
        assert ctx.encode(urel) is ctx.encode(urel)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("q_index", range(11))
    def test_engines_agree_on_random_queries(self, seed, q_index):
        db = _random_udb(seed)
        q = query(_queries()[q_index])
        scalar, columnar = _scalar_and_columnar(db, q)
        assert scalar == columnar

    def test_empty_and_zero_arity_relations(self):
        db = _random_udb(2)
        ctx = ColumnarContext(db.w)
        empty = URelation.from_rows(("A", "B"), [])
        c_empty = ctx.encode(empty)
        c_s = ctx.encode(db.relation("S"))
        assert c_empty.natural_join(c_s).to_urelation() == empty.natural_join(
            db.relation("S")
        )
        c_r = ctx.encode(db.relation("R"))
        assert c_r.project([]).to_urelation() == db.relation("R").project([])

    def test_rename_and_schema_errors_match_scalar(self):
        from repro.algebra.schema import SchemaError

        db = _random_udb(3)
        ctx = ColumnarContext(db.w)
        c_r = ctx.encode(db.relation("R"))
        with pytest.raises(SchemaError):
            c_r.rename({"Z": "Q"})
        with pytest.raises(SchemaError):
            c_r.product(ctx.encode(db.relation("S")))  # shared attribute B

    def test_select_fallback_path_matches(self):
        # A predicate comparing a string column with < runs the decoded
        # object-array path; a constant-only predicate the broadcast path.
        w = VariableTable()
        urel = URelation.from_rows(
            ("Name", "N"), [(TOP, ("ada", 1)), (TOP, ("bob", 2)), (TOP, ("eve", 3))]
        )
        ctx = ColumnarContext(w)
        c = ctx.encode(urel)
        pred = col("Name") < lit("c")
        assert c.select(pred).to_urelation() == urel.select(pred)
        pred_const = lit(1) > lit(2)
        assert c.select(pred_const).to_urelation() == urel.select(pred_const)
        pred_ne = col("Name").ne("bob")
        assert c.select(pred_ne).to_urelation() == urel.select(pred_ne)

    def test_select_on_constant_never_seen_by_codec(self):
        db = _random_udb(4)
        ctx = ColumnarContext(db.w)
        c_r = ctx.encode(db.relation("R"))
        pred = col("A").eq(999)  # 999 appears in no relation
        assert c_r.select(pred).to_urelation() == db.relation("R").select(pred)
        pred = col("A").ne(999)
        assert c_r.select(pred).to_urelation() == db.relation("R").select(pred)

    def test_select_comparing_two_unseen_constants(self):
        # Regression: two distinct constants the codec never saw must not
        # collide on the unseen sentinel and spuriously compare equal.
        db = _random_udb(5)
        ctx = ColumnarContext(db.w)
        c_r = ctx.encode(db.relation("R"))
        r = db.relation("R")
        for pred in (
            lit("p").eq("q"),
            lit("p").ne("q"),
            lit("p").eq("p"),
            lit("p").ne("p"),
        ):
            assert c_r.select(pred).to_urelation() == r.select(pred)

    def test_pair_merge_chunking_is_invisible(self, monkeypatch):
        # A tiny block budget forces many merge blocks; results must be
        # identical to the single-block path (memory bounding only).
        import repro.urel.columnar as columnar_mod

        db = _random_udb(7, n_rows=40)
        ctx = ColumnarContext(db.w)
        single = (
            ctx.encode(db.relation("R"))
            .natural_join(ctx.encode(db.relation("S")))
            .to_urelation()
        )
        monkeypatch.setattr(columnar_mod, "_PAIR_MERGE_BUDGET", 16)
        ctx2 = ColumnarContext(db.w)
        chunked = (
            ctx2.encode(db.relation("R"))
            .natural_join(ctx2.encode(db.relation("S")))
            .to_urelation()
        )
        assert single == chunked
        assert chunked == db.relation("R").natural_join(db.relation("S"))

    def test_guarded_predicate_short_circuits_like_scalar(self):
        # Regression: `B != 0 and A / B > 1` must not raise on the
        # numpy path (eager vectorized evaluation hits the B == 0 rows
        # the scalar operators' short-circuit never divides by).
        w = VariableTable()
        urel = URelation.from_rows(
            ("A", "B"), [(TOP, (4, 2)), (TOP, (4, 0)), (TOP, (1, 2))]
        )
        ctx = ColumnarContext(w)
        pred = col("B").ne(0) & ((col("A") / col("B")) > lit(1))
        assert ctx.encode(urel).select(pred).to_urelation() == urel.select(pred)
        # An unguarded division must still raise, exactly like scalar.
        unguarded = (col("A") / col("B")) > lit(1)
        with pytest.raises(ZeroDivisionError):
            urel.select(unguarded)
        with pytest.raises(ZeroDivisionError):
            ctx.encode(urel).select(unguarded)

    def test_mixed_type_equal_values_keep_exact_arithmetic(self):
        # Regression: with float 3.0 coded first session-wide, decoding
        # int 3 yields 3.0 — whose arithmetic at 1e23 scale is inexact.
        # The conflation guard must route select/computed-project
        # through the scalar operators on the original values.
        w = VariableTable()
        ctx = ColumnarContext(w)
        floats = URelation.from_rows(("X",), [(TOP, (3.0,))])
        ctx.encode(floats)  # 3.0 becomes the canonical representative
        ints = URelation.from_rows(("A",), [(TOP, (3,)), (TOP, (4,))])
        encoded = ctx.encode(ints)
        assert ctx.values.has_conflation
        pred = (col("A") * lit(10**23)).eq(lit(3 * 10**23))
        assert encoded.select(pred).to_urelation() == ints.select(pred)
        proj = [((col("A") * lit(10**23)), "M")]
        assert encoded.project(proj).to_urelation() == ints.project(proj)

    def test_mixed_type_values_agree_end_to_end(self):
        # The reviewer repro: a join intermediate carrying float 3.0
        # from one relation while int 3 was coded first by another —
        # once the conflation flag is set, no columnar intermediate may
        # be built, so arithmetic selects see the true values on both
        # engines.
        w = VariableTable()
        db = UDatabase(w=w)
        db.set_relation(
            "S",
            URelation.from_rows(
                ("K", "C"), [(TOP, (k, 3)) for k in range(40)]
            ),
        )
        db.set_relation(
            "R",
            URelation.from_rows(
                ("A", "K"), [(TOP, (3.0, k)) for k in range(40)]
            ),
        )
        q = query(
            rel("S").join(rel("R")).select((col("A") + lit(2**60)).eq(2**60 + 3))
        )
        scalar, columnar = _scalar_and_columnar(db, q)
        assert scalar == columnar

    def test_nan_values_agree_with_scalar_semantics(self):
        # Regression: the codec's dict lookup finds a NaN object by
        # identity, but the scalar path's == says nan != nan.  Once a
        # NaN is coded, the integer-code =/!= fast path must yield to
        # the object path so both engines stay setwise identical.
        nan = float("nan")
        w = VariableTable()
        urel = URelation.from_rows(
            ("A", "N"), [(TOP, (nan, 1)), (TOP, (2.0, 2)), (TOP, (3.0, 3))]
        )
        ctx = ColumnarContext(w)
        encoded = ctx.encode(urel)
        for pred in (
            col("A").eq(nan),  # the SAME NaN object: scalar keeps nothing
            col("A").ne(nan),
            col("A").eq(2.0),
            col("A").ne(2.0),
        ):
            assert encoded.select(pred).to_urelation() == urel.select(pred)

    def test_worth_encoding_envelope(self):
        # Tiny relations and wide (tuple-independent-shaped) variable
        # sets stay on the indexed scalar path.
        db = _random_udb(6)
        ctx = ColumnarContext(db.w, min_rows=32, max_vars=64)
        assert ctx.worth_encoding(db.relation("R"))
        tiny = URelation.from_rows(("A",), [(TOP, (1,))])
        assert not ctx.worth_encoding(tiny)
        w = VariableTable()
        rows = []
        for i in range(100):  # one fresh variable per row: 100 vars > 64
            w.add(("t", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})
            rows.append((Condition({("t", i): 1}), (i,)))
        wide = URelation.from_rows(("A",), rows)
        assert not ColumnarContext(w).worth_encoding(wide)

    def test_conflation_taint_is_per_relation_not_session_wide(self):
        # A conflation elsewhere in the session must not kick unaffected
        # relations off the columnar path.
        w = _variable_table()
        db = UDatabase(w=w)
        rng = random.Random(11)
        db.set_relation("R", _random_urel(rng, ("A", "B"), 48))  # ints only
        ctx = ColumnarContext(db.w)
        ctx.values.code(99.0)
        ctx.values.code(99)  # cross-type conflation, unrelated values
        assert ctx.values.has_conflation
        encoded = ctx.encode(db.relation("R"))
        assert not encoded.tainted  # R holds no conflated code
        # A relation holding the *canonical* member decodes faithfully
        # and stays untainted too:
        floats = URelation.from_rows(("A",), [(TOP, (99.0,)), (TOP, (1,))])
        assert not ctx.encode(floats).tainted
        # Only a relation coding a *non-canonical* member of a class is
        # tainted at encode time:
        ctx2 = ColumnarContext(db.w)
        ctx2.encode(URelation.from_rows(("X",), [(TOP, (3.0,))]))
        tainted = ctx2.encode(URelation.from_rows(("A",), [(TOP, (3,)), (TOP, (4,))]))
        assert tainted.tainted

    def test_nan_condition_values_agree_on_joins(self):
        # Scalar Condition.union calls a NaN condition value inconsistent
        # with itself (nan != nan), while code equality would call it
        # consistent — relations whose condition domains contain NaN are
        # tainted at encode time so joins run on the scalar path.
        nan = float("nan")
        w = VariableTable()
        w.add("x", {nan: Fraction(1, 2), 0: Fraction(1, 2)})
        db = UDatabase(w=w)
        cond = Condition({"x": nan})
        db.set_relation(
            "R", URelation.from_rows(("A", "B"), [(cond, (i, i % 4)) for i in range(40)])
        )
        db.set_relation(
            "S", URelation.from_rows(("B", "C"), [(cond, (i % 4, i)) for i in range(40)])
        )
        ctx = ColumnarContext(db.w)
        assert ctx.encode(db.relation("R")).tainted
        q = query(rel("R").join(rel("S")))
        scalar, columnar = _scalar_and_columnar(db, q)
        assert scalar == columnar
        assert len(scalar.rows) == 0  # nan != nan: every merge inconsistent

    def test_product_block_generation_is_invisible(self, monkeypatch):
        # With a tiny budget the product generates pair blocks per
        # left-row slice; results must match the scalar operator.
        import repro.urel.columnar as columnar_mod

        db = _random_udb(13, n_rows=36)
        renamed = db.relation("S").rename({"B": "D", "C": "E"})
        ctx = ColumnarContext(db.w)
        monkeypatch.setattr(columnar_mod, "_PAIR_MERGE_BUDGET", 64)
        out = ctx.encode(db.relation("R")).product(ctx.encode(renamed)).to_urelation()
        assert out == db.relation("R").product(renamed)

    def test_wide_join_chain_agrees_across_engines(self):
        # Chained joins whose merged condition layout exceeds max_vars:
        # the evaluator must fall back rather than build an ever-wider
        # dense matrix, and results must stay identical.
        w = VariableTable()
        db = UDatabase(w=w)
        rng = random.Random(12)
        for name, cols in (("R1", ("A", "B")), ("R2", ("B", "C")), ("R3", ("C", "D"))):
            rows = []
            for i in range(40):  # one fresh variable per row: 40 vars each
                var = (name, i)
                w.add(var, {0: Fraction(1, 2), 1: Fraction(1, 2)})
                rows.append((Condition({var: 1}), (rng.randint(0, 5), rng.randint(0, 5))))
            db.set_relation(name, URelation.from_rows(cols, rows))
        q = query(rel("R1").join(rel("R2")).join(rel("R3")).project(["A", "D"]))
        scalar, columnar = _scalar_and_columnar(db, q)
        assert scalar == columnar

    def test_engines_agree_outside_the_envelope(self):
        # Tuple-independent shape (one variable per row, > max_vars):
        # the columnar evaluator must fall back per relation and still
        # agree with the scalar path end to end.
        from repro.generators.tpdb import tuple_independent

        rows = [((i, i % 5), Fraction(1, 3)) for i in range(120)]
        db = tuple_independent("R", ("A", "B"), rows)
        q = query(rel("R").select(col("B").eq(2)).project(["A"]))
        scalar, columnar = _scalar_and_columnar(db, q)
        assert scalar == columnar


# -------------------------------------------------- hypothesis property tests
@st.composite
def _urel_pair(draw):
    """Two joinable relations with random conditions over a shared W."""
    n1 = draw(st.integers(0, 12))
    n2 = draw(st.integers(0, 12))
    seed = draw(st.integers(0, 2**16))
    rng = random.Random(seed)
    w = _variable_table()
    left = _random_urel(rng, ("A", "B"), n1)
    right = _random_urel(rng, ("B", "C"), n2)
    return w, left, right


class TestColumnarHypothesis:
    @given(_urel_pair())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_join_select_project_pipeline_agrees(self, pair):
        w, left, right = pair
        ctx = ColumnarContext(w)
        scalar = (
            left.natural_join(right)
            .select(col("A") >= lit(1))
            .project(["A", "C"])
        )
        columnar = (
            ctx.encode(left)
            .natural_join(ctx.encode(right))
            .select(col("A") >= lit(1))
            .project(["A", "C"])
            .to_urelation()
        )
        assert scalar == columnar

    @given(_urel_pair())
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_union_and_product_agree(self, pair):
        w, left, right = pair
        ctx = ColumnarContext(w)
        renamed = right.rename({"B": "D", "C": "E"})
        assert (
            ctx.encode(left).product(ctx.encode(renamed)).to_urelation()
            == left.product(renamed)
        )
        scalar = left.project(["B"]).union(right.project(["B"]))
        columnar = (
            ctx.encode(left)
            .project(["B"])
            .union(ctx.encode(right).project(["B"]))
            .to_urelation()
        )
        assert scalar == columnar


# ------------------------------------------------------- engine-level parity
class TestEngineParity:
    def test_coin_pipeline_identical_across_engines(self, coins_complete):
        results = {}
        for engine in ENGINES:
            db = repro.connect(
                on_engine(engine, UDatabase.from_complete(coins_complete)),
                strategy="exact-decomposition",
            )
            db.assign("R", "project[CoinType](repair-key[@ Count](Coins))")
            db.assign(
                "S",
                "project[CoinType, Toss, Face](repair-key[CoinType, Toss @ FProb]("
                "product(Faces, literal[Toss]{(1), (2)})))",
            )
            db.assign(
                "T",
                "join(R, project[CoinType](select[Toss = 1 and Face = 'H'](S)), "
                "project[CoinType](select[Toss = 2 and Face = 'H'](S)))",
            )
            out = db.query(
                "project[CoinType, P1 / P2 -> P](join(conf[P1](T), conf[P2](project[](T))))"
            )
            results[engine] = out.relation
        assert results["scalar"] == results["columnar"]

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_confidences_identical_across_engines(self, seed):
        db = _random_udb(seed)
        confs = {}
        for engine in ENGINES:
            session = repro.connect(
                on_engine(engine, db), strategy="exact-decomposition", copy=True
            )
            reports = session.confidence_all(rel("R").join(rel("S")).project(["A"]))
            confs[engine] = {t: r.value for t, r in reports.items()}
        assert confs["scalar"] == confs["columnar"]

    def test_database_copies_get_private_coding_context(self):
        # connect(..., copy=True) promises a *private* copy: a scratch
        # evaluator (explain) or a second session must never mutate the
        # original's ColumnarContext or ConditionPool.  Copies instead
        # get a warm snapshot — same codes assigned so far, independent
        # growth afterwards.
        db = _random_udb(8)
        session = repro.connect(db, copy=True)
        session.query(query(rel("R").project(["A"])))
        ctx = session.db.columnar_context
        assert ctx is not None
        encoded = {
            c: e
            for c, e in session.db.relation("R").__dict__.get("_columnar", ())
        }
        session.explain("project[A](R)")
        assert session.db.columnar_context is ctx  # explain left the session alone
        # ... and the scratch copy's context did not evict the session's
        # encoding memo from the shared URelation (two-slot memo).
        after = {
            c: e
            for c, e in session.db.relation("R").__dict__.get("_columnar", ())
        }
        for c, e in encoded.items():
            assert after.get(c) is e

        copied = session.db.copy()
        assert copied.columnar_context is not ctx
        assert copied.condition_pool is not session.db.condition_pool
        assert copied.w is not session.db.w
        # Warm: every value coded by the session decodes identically in the copy.
        assert copied.columnar_context.values.index == ctx.values.index
        # Isolated: new codes in the copy never appear in the original.
        before = len(ctx.values)
        copied.columnar_context.values.code(("fresh-value", 999))
        assert len(ctx.values) == before

    def test_explain_reports_operator_path(self, coin_session_after_T):
        plan = coin_session_after_T.explain("project[CoinType](select[Toss = 1](S))")
        assert "columnar[numpy]" in plan.text


# ----------------------------------------------- conditions: fast paths, pool
class TestConditionFastPaths:
    def test_init_from_condition_shares_mapping(self):
        original = Condition({"x": 1, "y": 2})
        clone = Condition(original)
        assert clone == original
        assert clone._map is original._map

    def test_union_with_top_returns_operand_unchanged(self):
        cond = Condition({"x": 1})
        assert TOP.union(cond) is cond
        assert cond.union(TOP) is cond

    def test_union_disjoint_and_inconsistent(self):
        a = Condition({"x": 1})
        b = Condition({"y": 0})
        merged = a.union(b)
        assert merged == Condition({"x": 1, "y": 0})
        assert a.union(Condition({"x": 0})) is None

    def test_pool_interns_equal_conditions(self):
        pool = ConditionPool()
        a = Condition({"x": 1})
        b = Condition({"x": 1})
        assert pool.intern(a) is pool.intern(b) is a

    def test_pool_union_memoizes_and_matches_plain_union(self):
        pool = ConditionPool()
        a = Condition({"x": 1, "y": 0})
        b = Condition({"y": 0, "z": 2})
        first = pool.union(a, b)
        assert first == a.union(b)
        assert pool.union(a, b) is first
        assert pool.union(a, Condition({"x": 0})) is None

    def test_pool_union_with_top_interns(self):
        pool = ConditionPool()
        cond = Condition({"x": 1})
        out = pool.union(TOP, cond)
        assert out == cond
        assert pool.union(cond, TOP) is out


# --------------------------------------------- the packed row-order kernel
class TestRowOrder:
    """``_row_order`` packs columns into few sort words; its permutation
    must be ``np.lexsort(matrix.T)``'s, stable ties included."""

    @staticmethod
    def _matrices():
        rng = np.random.default_rng(5)
        yield np.empty((0, 3), dtype=np.int64)
        yield np.empty((0, 1), dtype=np.int64)
        yield rng.integers(-1, 3, size=(50, 1))  # one column, negative codes
        yield rng.integers(-1, 2, size=(200, 15))  # one word
        yield np.full((40, 4), -1, dtype=np.int64)  # zero spans: all ties
        for _ in range(20):
            n, k = int(rng.integers(1, 300)), int(rng.integers(1, 8))
            high = int(rng.choice([2, 100, 1 << 20, 1 << 40]))
            yield rng.integers(-high // 2, high, size=(n, k))  # several words
        big = np.iinfo(np.int64)
        wide = rng.integers(0, 4, size=(30, 3))
        wide[:, 1] = rng.choice([big.min, -1, 0, big.max], size=30)  # a span past 62 bits
        yield wide

    def test_the_permutation_is_lexsorts(self):
        from repro.urel.columnar import _row_order

        for matrix in self._matrices():
            assert np.array_equal(_row_order(matrix), np.lexsort(matrix.T)), matrix.shape


# --------------------------------------------- URelation caches and indexes
class TestURelationCaches:
    def test_conditions_of_matches_brute_force(self):
        rng = random.Random(7)
        urel = _random_urel(rng, ("A", "B"), 40)
        for _, vals in urel.rows:
            expected = sorted(
                (cond for cond, v in urel.rows if v == vals), key=repr
            )
            assert sorted(urel.conditions_of(vals), key=repr) == expected
        assert urel.conditions_of((99, 99)) == []

    def test_conditions_of_returns_fresh_list(self):
        urel = URelation.from_rows(("A",), [(Condition({"x": 1}), (1,))])
        first = urel.conditions_of((1,))
        first.append("junk")
        assert urel.conditions_of((1,)) == [Condition({"x": 1})]

    def test_variables_and_is_certain_cached(self):
        rng = random.Random(8)
        urel = _random_urel(rng, ("A",), 20)
        expected_vars = frozenset().union(*(c.variables for c, _ in urel.rows))
        assert urel.variables() == expected_vars
        assert urel.variables() is urel.variables()  # cached object
        certain = URelation.from_rows(("A",), [(TOP, (1,)), (TOP, (2,))])
        assert certain.is_certain
        assert not urel.is_certain or expected_vars == frozenset()

    def test_trusted_results_still_validate_schema_errors(self):
        from repro.algebra.schema import SchemaError

        urel = URelation.from_rows(("A", "B"), [(TOP, (1, 2))])
        with pytest.raises(SchemaError):
            urel.rename({"A": "B"})  # would collide
        with pytest.raises(SchemaError):
            urel.project(["A", "A"])  # duplicate output

    def test_operator_results_equal_revalidated_construction(self):
        rng = random.Random(9)
        left = _random_urel(rng, ("A", "B"), 15)
        right = _random_urel(rng, ("B", "C"), 15)
        fast = left.natural_join(right)
        slow = URelation(fast.columns, fast.rows)  # full validation pass
        assert fast == slow


# --------------------------------------------------- confidence_all scaling
class TestConfidenceAllScaling:
    """Satellite: 4× the rows must not cost confidence_all 16× the work.

    Counted, not timed: every DNF is read off the relation's tuple index
    (``URelation.lineage_index``), built by one grouping pass per
    relation; the seed's per-tuple scan of U_R was quadratic.
    """

    @staticmethod
    def _rows_grouped(n_rows: int, monkeypatch) -> int:
        from repro.generators.tpdb import tuple_independent

        grouped = []
        tuple_index = URelation.lineage_index

        def counted(self):
            if "_conds_by_tuple" not in self.__dict__:
                grouped.append(len(self.rows))
            return tuple_index(self)

        monkeypatch.setattr(URelation, "lineage_index", counted)
        rows = [((i, i % 7), Fraction(1, 3)) for i in range(n_rows)]
        session = repro.connect(
            tuple_independent("R", ("A", "B"), rows), strategy="exact-decomposition"
        )
        assert len(session.confidence_all("R")) == n_rows
        assert len(grouped) == 1  # one grouping pass over the one relation
        return sum(grouped)

    def test_confidence_all_scales_near_linearly(self, monkeypatch):
        small = self._rows_grouped(500, monkeypatch)
        large = self._rows_grouped(2000, monkeypatch)
        assert small == 500 and large <= 5 * small
