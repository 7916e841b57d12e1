"""Cross-worker differential suite for the sharded columnar algebra.

The PR that shards the columnar product/join pair merges (and the σ̂
candidate loop) rides on one hard claim: *parallelism changes wall-clock
time, never answers*.  This suite attacks the claim differentially:

* random query trees (joins / products / selects / projects / unions
  over generated U-databases) are evaluated on every cell of the
  ``workers ∈ {omitted, 1, 2, 4} × backends {numpy, python}`` matrix, and
  every cell must produce identical decoded relations, identical
  (exact) confidences, and identical ``explain`` strategy choices;
* a seed corpus of the worst shrunk failures — empty operands,
  duplicate-heavy dedups, pairs whose conditions all conflict,
  cross-type ``3`` vs ``3.0`` values (the conflation-taint scalar
  fallback), boundary-sized relations — is pinned as fixed regressions;
* the profitable-shard-size threshold (``min_shard_pairs`` /
  ``plan_pairs``) is unit-tested at its boundary, together with the
  ``explain`` ``·sharded[n]·below-threshold`` warning it drives;
* the σ̂ candidate fan-out is checked across worker counts in both the
  wide regime (candidate-parallel, pre-spawned per-candidate streams)
  and the narrow regime (sequential candidates, per-value trial
  sharding).

Sessions given a worker count here run executors with deliberately tiny
plan thresholds so test-sized workloads genuinely cross process
boundaries; the executors (and their forked pools) are shared across
examples to keep the suite fast.  The omitted-``workers`` cell runs the
default plan on the default serial executor.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.algebra.builder import rel
from repro.algebra.expressions import col, lit
from repro.engine.plan import BELOW_THRESHOLD
from repro.urel.conditions import Condition
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.backends import HAS_NUMPY
from repro.util.parallel import ShardExecutor

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not available")

BACKENDS = ["python"] + (["numpy"] if HAS_NUMPY else [])
WORKER_MATRIX = (1, 2, 4)
N_VARS = 6


# --------------------------------------------------------------- executors
_EXECUTORS: dict[int, ShardExecutor] = {}


def _executor(workers: int | None) -> ShardExecutor | None:
    """A cached small-threshold executor (pool shared across examples).

    ``min_shard_pairs=64`` / ``min_shard_items=2`` make hypothesis-sized
    workloads fan out for real; the plan stays a pure function of the
    workload, so the determinism contract under test is the production
    one — only the profitability constants are scaled down.
    """
    if workers is None:
        return None  # connect(workers=None): the default serial executor
    if workers not in _EXECUTORS:
        _EXECUTORS[workers] = ShardExecutor(
            workers, min_shard_pairs=64, min_shard_items=2, min_shard_trials=256
        )
    return _EXECUTORS[workers]


@pytest.fixture(scope="module", autouse=True)
def _close_executors():
    yield
    for executor in _EXECUTORS.values():
        executor.close()
    _EXECUTORS.clear()


# ---------------------------------------------------------------- workloads
def _make_db(seed: int, n_r: int = 40, n_s: int = 36, n_t: int = 34) -> UDatabase:
    """R(A,B), S(B,C), T(C,D) with condition-sharing rows over one W.

    Sized past the columnar envelope's ``min_rows`` so the numpy cells
    actually run the columnar operators; values live in small ranges so
    joins match often and condition merges both survive and die.
    """
    rng = random.Random(seed)
    w = VariableTable()
    for i in range(N_VARS):
        w.add(("v", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})

    def condition() -> Condition:
        return Condition(
            {("v", rng.randrange(N_VARS)): rng.randint(0, 1) for _ in range(rng.randint(0, 2))}
        )

    def relation(cols: tuple[str, ...], n: int) -> URelation:
        rows = [
            (condition(), tuple(rng.randint(0, 4) for _ in cols)) for _ in range(n)
        ]
        return URelation.from_rows(cols, rows)

    db = UDatabase(w=w)
    db.set_relation("R", relation(("A", "B"), n_r))
    db.set_relation("S", relation(("B", "C"), n_s))
    db.set_relation("T", relation(("C", "D"), n_t))
    return db


def _queries():
    """The random-tree pool: joins/products/selects/projects/unions."""
    return [
        rel("R").join(rel("S")),
        rel("R").product(rel("S").rename({"B": "D", "C": "E"})),
        rel("R").join(rel("S")).select(col("A") >= lit(1)).project(["A", "C"]),
        rel("R").select(col("B").eq(1)).join(rel("S")),
        rel("R").project(["B"]).union(rel("S").project(["B"])),
        rel("R").join(rel("S")).join(rel("T")),
        rel("R").product(rel("R").rename({"A": "A2", "B": "B2"})),
        rel("R").join(rel("S")).select((col("A") + col("C")) <= lit(5)),
        rel("T").join(rel("S")).project(["B", "D"]).union(rel("R").rename({"A": "B", "B": "D"})),
    ]


def _matrix_cells():
    for backend in BACKENDS:
        for workers in (None,) + WORKER_MATRIX:
            yield backend, workers


def _run_cell(db: UDatabase, q, backend: str, workers: int | None):
    """One matrix cell: decoded relation, exact confidences, explain choices."""
    session = repro.connect(
        db,
        strategy="auto",
        eps=0.3,
        delta=0.1,
        rng=17,
        backend=backend,
        workers=_executor(workers),
    )
    relation = session.query(q).relation
    confidences = {
        row: Fraction(report.value)
        for row, report in session.confidence_all(q, strategy="exact-decomposition").items()
    }
    choices = frozenset(session.explain(q.conf()).chosen_methods())
    return relation, confidences, choices


def _assert_matrix_agrees(seed: int, q_index: int):
    q = _queries()[q_index]
    reference = None
    for backend, workers in _matrix_cells():
        outcome = _run_cell(_make_db(seed), q, backend, workers)
        if reference is None:
            reference_cell, reference = (backend, workers), outcome
        else:
            assert outcome[0] == reference[0], (
                f"relation diverged: {(backend, workers)} vs {reference_cell}"
            )
            assert outcome[1] == reference[1], (
                f"confidences diverged: {(backend, workers)} vs {reference_cell}"
            )
            assert outcome[2] == reference[2], (
                f"explain choices diverged: {(backend, workers)} vs {reference_cell}"
            )


# ------------------------------------------------------------- random trees
class TestShardedAlgebraDifferential:
    @given(st.integers(0, 2**20), st.integers(0, len(_queries()) - 1))
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    def test_random_trees_agree_across_workers_and_backends(self, seed, q_index):
        _assert_matrix_agrees(seed, q_index)


class TestSeedCorpus:
    """Worst shrunk failures and hand-built edge shapes, pinned forever."""

    @pytest.mark.parametrize(
        "seed,q_index",
        [
            (0, 0),  # plain join
            (1, 6),  # self product (shared encodings both sides)
            (711, 5),  # join chain: columnar-born intermediates re-shard
            (3, 8),  # union after join/project with column re-alignment
            (7, 2),  # select+project over sharded join survivors
        ],
    )
    def test_shrunk_corpus(self, seed, q_index):
        _assert_matrix_agrees(seed, q_index)

    def test_empty_operand_edges(self):
        """Zero-row sides: the shard plan must degrade to clean no-ops."""
        for backend, workers in _matrix_cells():
            db = _make_db(11)
            db.set_relation("S", URelation.from_rows(("B", "C"), []))
            session = repro.connect(db, rng=1, backend=backend, workers=_executor(workers))
            assert session.query(rel("R").join(rel("S"))).relation.rows == frozenset()
            empty_product = rel("S").product(rel("T").rename({"C": "E", "D": "F"}))
            assert session.query(empty_product).relation.rows == frozenset()

    def test_all_pairs_inconsistent(self):
        """Every candidate pair's conditions conflict: empty survivors
        from every shard, deduped once, on every cell."""
        w = VariableTable()
        w.add(("k", 0), {0: Fraction(1, 2), 1: Fraction(1, 2)})
        left = URelation.from_rows(
            ("A",), [(Condition({("k", 0): 0}), (i,)) for i in range(40)]
        )
        right = URelation.from_rows(
            ("B",), [(Condition({("k", 0): 1}), (i,)) for i in range(40)]
        )
        for backend, workers in _matrix_cells():
            db = UDatabase(w=w.copy())
            db.set_relation("L", left)
            db.set_relation("Rt", right)
            session = repro.connect(db, rng=1, backend=backend, workers=_executor(workers))
            assert session.query(rel("L").product(rel("Rt"))).relation.rows == frozenset()

    def test_duplicate_heavy_dedup_runs_once(self):
        """Many duplicate rows: the single merged-result lexsort must
        collapse them identically on every cell."""
        results = set()
        for backend, workers in _matrix_cells():
            db = _make_db(5)
            dup = URelation.from_rows(
                ("A", "B"),
                [(Condition({}), (i % 3, i % 2)) for i in range(48)],
            )
            db.set_relation("R", dup)
            session = repro.connect(db, rng=1, backend=backend, workers=_executor(workers))
            out = session.query(rel("R").join(rel("S"))).relation
            results.add((out.columns, out.rows))
        assert len(results) == 1

    def test_cross_type_conflation_taint_under_sharding(self):
        """``3`` vs ``3.0`` in joined columns: the conflation taint must
        force the same scalar fallback on sharded numpy cells as on
        serial ones (decoded results stay setwise equal everywhere)."""
        w = VariableTable()
        w.add(("c", 0), {0: Fraction(1, 2), 1: Fraction(1, 2)})
        mixed = URelation.from_rows(
            ("A", "B"),
            [(Condition({}), (i, 3)) for i in range(20)]
            + [(Condition({}), (i, 3.0)) for i in range(20, 40)],
        )
        probe = URelation.from_rows(
            ("B", "C"), [(Condition({}), (3, k)) for k in range(40)]
        )
        results = set()
        for backend, workers in _matrix_cells():
            db = UDatabase(w=w.copy())
            db.set_relation("M", mixed)
            db.set_relation("P", probe)
            session = repro.connect(db, rng=1, backend=backend, workers=_executor(workers))
            out = session.query(
                rel("M").join(rel("P")).select(col("A") * col("B") >= lit(9))
            ).relation
            results.add((out.columns, out.rows))
        assert len(results) == 1


@needs_numpy
class TestPairBlockBounds:
    def test_all_pairs_shard_reblocks_when_right_exceeds_budget(self):
        """A right operand bigger than the pair budget must not defeat
        the ~128MB transient cap: one left row's pairs are re-cut by the
        inner block loop, and the output is identical either way."""
        from repro.urel.columnar import _all_pairs_shard
        from repro.util.backends import np

        left_conds = np.array([[0], [1], [-1], [0], [1]], dtype=np.int64)
        right_conds = np.array([[i % 3 - 1] for i in range(10)], dtype=np.int64)
        left_data = np.arange(5, dtype=np.int64).reshape(5, 1)
        right_data = np.arange(10, 20, dtype=np.int64).reshape(10, 1)
        args = (left_conds, right_conds, left_data, right_data, [0], 0, 5, 10)
        unbounded = _all_pairs_shard(*args, 10**6)
        # block=3 < n_right=10: every row-chunk re-blocks internally.
        reblocked = _all_pairs_shard(*args, 3)
        assert np.array_equal(unbounded[0], reblocked[0])
        assert np.array_equal(unbounded[1], reblocked[1])
        assert unbounded[0].shape[0] > 0

    def test_explain_follows_columnar_born_intermediates(self):
        """A tiny intermediate *born columnar* (a select over a lifted
        base) stays columnar at runtime however few rows it has; explain
        must judge the lift on the in-flight representation, not on a
        re-materialized scalar relation that would flunk min_rows."""
        db = _make_db(4)
        tiny_left = rel("R").select(col("A").eq(1))  # far below min_rows
        executor = ShardExecutor(4, min_shard_pairs=16)
        session = repro.connect(db, rng=1, backend="numpy", workers=executor)
        plan = session.explain(tiny_left.join(rel("S")))
        assert plan.root.operator == "join"
        assert plan.root.path.startswith("columnar[numpy]·sharded[4]"), plan.root.path
        session.close()
        executor.close()

    def test_explain_reports_scalar_for_unliftable_join(self):
        """Relations the runtime refuses to lift (cross-type conflation
        taint) must not be annotated ·sharded — they run the scalar
        serial operator whatever the worker count."""
        w = VariableTable()
        w.add(("c", 0), {0: Fraction(1, 2), 1: Fraction(1, 2)})
        mixed = URelation.from_rows(
            ("A", "B"),
            [(Condition({}), (i, 3)) for i in range(20)]
            + [(Condition({}), (i, 3.0)) for i in range(20, 40)],
        )
        probe = URelation.from_rows(
            ("B", "C"), [(Condition({}), (3, k)) for k in range(40)]
        )
        db = UDatabase(w=w)
        db.set_relation("M", mixed)
        db.set_relation("P", probe)
        executor = ShardExecutor(4, min_shard_pairs=64)
        # Not `auto`: step 0 would answer this all-certain plan, and a
        # plan it answers runs no join (`·deferred`).
        session = repro.connect(
            db, rng=1, backend="numpy", workers=executor, strategy="exact-decomposition"
        )
        plan = session.explain(rel("M").join(rel("P")))
        assert plan.root.operator == "join"
        assert plan.root.path == "scalar[indexed]", plan.root.path
        session.close()
        executor.close()


# -------------------------------------------------------- σ̂ candidate fan-out
def _sigma_db(n_groups: int) -> UDatabase:
    """``n_groups`` distinct A-values, each with a sampled (non-read-once)
    DNF, so every σ̂ candidate genuinely runs Figure 3."""
    rng = random.Random(23)
    w = VariableTable()
    for i in range(8):
        w.add(("x", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})
    rows = []
    for a in range(n_groups):
        for _ in range(4):
            cond = Condition(
                {("x", rng.randrange(8)): rng.randint(0, 1) for _ in range(2)}
            )
            rows.append((cond, (a,)))
    db = UDatabase(w=w)
    db.set_relation("R", URelation.from_rows(("A",), rows))
    return db


def _sigma_join_db() -> UDatabase:
    """R(A,B), S(B,C) past the columnar ``min_rows``, two-literal
    conditions over ten variables: π_A(σ_{C=A}(R ⋈ S)) gives six groups
    with sampled (non-read-once) DNFs on both sides of 1/2."""
    rng = random.Random(31)
    w = VariableTable()
    for i in range(10):
        w.add(("x", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})

    def condition() -> Condition:
        return Condition({("x", rng.randrange(10)): rng.randint(0, 1) for _ in range(2)})

    db = UDatabase(w=w)
    db.set_relation(
        "R",
        URelation.from_rows(("A", "B"), [(condition(), (a, b)) for a in range(6) for b in range(8)]),
    )
    db.set_relation(
        "S",
        URelation.from_rows(("B", "C"), [(condition(), (b, c)) for b in range(8) for c in range(6)]),
    )
    return db


class TestCandidateFanOutDeterminism:
    """σ̂ decisions identical at workers ∈ {omitted, 1, 2, 4}, wide and narrow."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_groups", [20, 4])  # wide (fans out) / narrow
    def test_evaluate_with_guarantee_across_workers(self, backend, n_groups):
        q = rel("R").approx_select(col("P1") > lit(0.4), groups=[["A"]])

        def run(workers):
            session = repro.connect(
                _sigma_db(n_groups),
                strategy="exact-decomposition",
                rng=9,
                backend=backend,
                workers=workers,
            )
            with session:
                # bounds_budget=0: this matrix checks the *sampled* path;
                # bound certification would decide every candidate trial-free.
                report = session.evaluate_with_guarantee(
                    q, delta=0.2, eps0=0.25, bounds_budget=0
                )
            return (
                sorted(map(repr, report.relation.rows)),
                report.rounds,
                sorted((repr(row), bound) for row, bound in report.tuple_bounds.items()),
                [
                    (record.data, record.decision.value, record.decision.total_trials)
                    for record in report.decisions
                ],
            )

        results = [run(w) for w in (None,) + WORKER_MATRIX]
        assert all(result == results[0] for result in results)
        # The workload must actually sample for the matrix to mean much.
        assert any(trials > 0 for _, _, trials in results[0][3])

    def test_sigma_over_join_subtree_runs_inherited_operators(self, monkeypatch):
        """σ̂ over ``project(select(join(R, S)))``: a non-trivial σ̂-free
        subtree under the approximate evaluator.  Every cell of backends
        × workers {omitted, 1, 2} must agree with its backend's first
        cell on decisions, tuple bounds and rows; the subtree must run
        the inherited ``UEvaluator`` operators (columnar on numpy) and
        never Section 6's annotated ones, which start above a σ̂."""
        from repro.algebra.operators import Join, Project, Select
        from repro.core.approx_select import ApproxQueryEvaluator
        from repro.urel.evaluate import UEvaluator

        calls = {"annotated": 0, "inherited": [], "join_reps": set()}

        def count_annotated(handler):
            def spy(self, node, *operands):
                calls["annotated"] += 1
                return handler(self, node, *operands)

            return spy

        def record_inherited(handler):
            def spy(self, node, *operands):
                result = handler(self, node, *operands)
                calls["inherited"].append(type(node))
                if type(node) is Join:
                    calls["join_reps"].add(type(result[0]).__name__)
                return result

            return spy

        for node_type, handler in list(ApproxQueryEvaluator.ANNOTATED.items()):
            monkeypatch.setitem(
                ApproxQueryEvaluator.ANNOTATED, node_type, count_annotated(handler)
            )
        for node_type in (Join, Select, Project):
            monkeypatch.setitem(
                UEvaluator.HANDLERS, node_type, record_inherited(UEvaluator.HANDLERS[node_type])
            )

        subtree = rel("R").join(rel("S")).select(col("C").eq(col("A"))).project(["A"])
        q = subtree.approx_select(col("P1") > lit(0.5), groups=[["A"]])

        def run(backend, workers):
            calls["inherited"].clear()
            calls["join_reps"].clear()
            session = repro.connect(
                _sigma_join_db(),
                strategy="exact-decomposition",
                rng=9,
                backend=backend,
                workers=workers,
            )
            with session:
                report = session.evaluate_with_guarantee(
                    q, delta=0.2, eps0=0.25, bounds_budget=0
                )
            # One join, one select, one project per driver evaluation — all inherited.
            assert sorted(calls["inherited"], key=repr) == sorted(
                [Join, Select, Project] * report.evaluations, key=repr
            )
            expected_rep = "ColumnarURelation" if backend == "numpy" else "URelation"
            assert calls["join_reps"] == {expected_rep}
            assert report.relation.columns == ("A", "P1")
            return report

        candidates = None
        for backend in BACKENDS:
            reference = run(backend, None)
            assert any(d.decision.total_trials > 0 for d in reference.decisions)
            for workers in (1, 2):
                report = run(backend, workers)
                assert report.decisions == reference.decisions
                assert report.tuple_bounds == reference.tuple_bounds
                assert report.relation.rows == reference.relation.rows
                assert report.rounds == reference.rounds
            # Trial streams differ per backend; the candidates and their
            # round-indexed budgets (l·|F| per value) do not.
            data = [d.data for d in reference.decisions]
            assert candidates in (None, data)
            candidates = data
        assert calls["annotated"] == 0

    def test_wide_selection_crosses_fanout_threshold(self):
        """20 candidates with the default plan (min 8 per shard) is the
        candidate-parallel regime; 4 candidates is not."""
        executor = ShardExecutor(4)
        assert len(executor.plan_items(20)) > 1
        assert len(executor.plan_items(4)) <= 1


# --------------------------------------------------- threshold boundary units
class TestProfitableShardSizeBoundary:
    def test_plan_pairs_boundary(self):
        executor = ShardExecutor(4, min_shard_pairs=100)
        assert executor.plan_pairs(199) == [(0, 199)]
        assert len(executor.plan_pairs(200)) == 2
        assert executor.plan_pairs(0) == []
        # Worker count never shapes the plan.
        assert executor.plan_pairs(1000) == ShardExecutor(1, min_shard_pairs=100).plan_pairs(1000)

    def test_plan_pairs_sizes_sum_and_cap(self):
        executor = ShardExecutor(2, min_shard_pairs=10, max_shards=7)
        shards = executor.plan_pairs(1000)
        assert len(shards) == 7
        assert shards[0][0] == 0 and shards[-1][1] == 1000
        assert all(a < b for a, b in shards)
        sizes = [b - a for a, b in shards]
        assert sum(sizes) == 1000 and max(sizes) - min(sizes) <= 1

    def test_plan_all_pairs_boundary(self):
        """The product schedule: left-row ranges, ≥ min_shard_pairs pairs each."""
        executor = ShardExecutor(4, min_shard_pairs=100)
        # 10 left rows × 50 right rows: 2-row shards (100/50), capped at 5.
        shards = executor.plan_all_pairs(10, 50)
        assert len(shards) == 5 and shards[-1][1] == 10
        # A skinny left side cannot fan out however big the right is.
        assert executor.plan_all_pairs(1, 10**6) == [(0, 1)]
        # Empty sides never shard.
        assert executor.plan_all_pairs(0, 50) == []
        assert executor.plan_all_pairs(10, 0) == []
        # Worker count never shapes the plan.
        assert shards == ShardExecutor(1, min_shard_pairs=100).plan_all_pairs(10, 50)

    @needs_numpy
    def test_explain_warns_below_threshold(self):
        """The README's "when serial wins" guidance, mechanized: the same
        node flips from ·sharded[4] to ·sharded[4]·below-threshold at
        the ``min_shard_pairs`` boundary — products on the all-pairs
        (left-row-range) schedule, key joins on the pair-count one.
        Explain consults the very same plan methods the operators run."""
        db = _make_db(2, n_r=40, n_s=36)
        # Random rows dedup setwise, so measure the real row counts.
        n1 = len(db.relation("R").rows)
        n2 = len(db.relation("S").rows)
        assert n1 >= 2 and n2 >= 2

        def root_path(q, min_shard_pairs: int, operator: str) -> str:
            executor = ShardExecutor(4, min_shard_pairs=min_shard_pairs)
            session = repro.connect(db, rng=1, backend="numpy", workers=executor)
            plan = session.explain(q)
            session.close()
            assert plan.root.operator == operator
            return plan.root.path

        product = rel("R").product(rel("S").rename({"B": "D", "C": "E"}))
        # min_shard_pairs == n2: one left row per shard — profitable.
        assert root_path(product, n2, "product") == "columnar[numpy]·sharded[4]"
        # min_shard_pairs == n1·n2: the whole product is one shard.
        assert (
            root_path(product, n1 * n2, "product")
            == f"columnar[numpy]·sharded[4]·{BELOW_THRESHOLD}"
        )

        join = rel("R").join(rel("S"))  # shares B: the plan_pairs schedule
        pairs = n1 * n2
        assert root_path(join, pairs // 2, "join") == "columnar[numpy]·sharded[4]"
        assert (
            root_path(join, pairs // 2 + 1, "join")
            == f"columnar[numpy]·sharded[4]·{BELOW_THRESHOLD}"
        )

    def test_scalar_backend_never_carries_shard_annotation(self):
        session = repro.connect(
            _make_db(2), rng=1, backend="python", workers=_executor(4)
        )
        plan = session.explain(rel("R").product(rel("S").rename({"B": "D", "C": "E"})))
        assert plan.root.path == "scalar[indexed]"

    def test_multi_group_approx_select_counts_joined_candidates(self):
        """σ̂ fans out over the *join* of its group keys: 6 A-keys × 6
        B-keys = 36 candidates crosses the default 8-per-shard plan even
        though each group alone (6 tuples) would not.  The explain
        annotation must count candidates the way the runtime does."""
        rng = random.Random(3)
        w = VariableTable()
        for i in range(6):
            w.add(("g", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})
        rows = [
            (
                Condition({("g", rng.randrange(6)): rng.randint(0, 1)}),
                (a, b),
            )
            for a in range(6)
            for b in range(6)
            if (a + b) % 2 == 0  # 18 present tuples; keys still 6 × 6
        ]
        db = UDatabase(w=w)
        db.set_relation("R", URelation.from_rows(("A", "B"), rows))
        executor = ShardExecutor(4)  # default thresholds
        session = repro.connect(db, strategy="exact-decomposition", rng=1, workers=executor)
        q = rel("R").approx_select(
            (col("P1") + col("P2")) > lit(0.5), groups=[["A"], ["B"]]
        )
        plan = session.explain(q)
        assert plan.root.operator == "approx-select"
        # Fan-out annotation first; the bounds-pruned tag rides along.
        assert plan.root.path.split("·")[0] == "sharded[4]", plan.root.path
        session.close()
        executor.close()

    def test_borrowed_executor_survives_session_close(self):
        """A ShardExecutor passed into connect() is borrowed: closing one
        sharing session must not degrade the others to serial."""
        executor = ShardExecutor(2, min_shard_pairs=64)
        first = repro.connect(_make_db(1), rng=1, workers=executor)
        second = repro.connect(_make_db(2), rng=1, workers=executor)
        first.close()
        assert executor.parallel, "borrowed executor was closed by ProbDB.close()"
        out = second.query(rel("R").join(rel("S"))).relation
        assert out == repro.connect(_make_db(2), rng=1).query(rel("R").join(rel("S"))).relation
        second.close()
        # Owned executors (workers given as an int) still close with the session.
        owned = repro.connect(_make_db(1), rng=1, workers=2)
        owned_executor = owned.executor
        owned.close()
        assert not owned_executor.parallel
        executor.close()

    def test_conf_below_threshold_tracks_items_and_trials(self):
        """A conf over few, cheap (exact-routed) tuples warns; the same
        tuple count with a sampling strategy's real trial budget does
        not — the budget alone fills worker blocks."""
        db = _sigma_db(3)  # 3 tuples, non-read-once DNFs
        executor = ShardExecutor(4)  # default thresholds
        exact = repro.connect(
            db, strategy="exact-decomposition", rng=1, workers=executor
        )
        plan = exact.explain(rel("R").conf())
        assert plan.root.path == f"sharded[4]·{BELOW_THRESHOLD}"
        sampled = repro.connect(
            db, strategy="karp-luby", eps=0.05, delta=0.01, rng=1, workers=executor
        )
        plan = sampled.explain(rel("R").conf())
        assert plan.root.path == "sharded[4]"
        executor.close()
