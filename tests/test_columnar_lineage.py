"""Confidences read lineage off the columnar result.

``db.query(q)`` keeps what the evaluator produced: a columnar result
decodes only when its ``relation`` is asked for.  Its ``rows`` decode the
distinct data tuples, and :func:`repro.confidence.dnf.lineage` decodes
only the conditions of tuples without ⊤ — a tuple holding the empty
condition gets ``Dnf([⊤])`` on both representations.  Checked here:

* differentially, on the fixed queries of ``test_urel_differential`` and
  on ``test_pushdown``'s plan generator, against the indexed scalar
  path, cold and warm, at one worker and on a two-worker pool;
* by counting the decode seam (``ColumnarURelation._decoded_conditions``)
  on a ``pipeline_conf``-shaped relation;
* by sizing a cached columnar result against a grown coding context,
  and again as it builds its row groups, lineage index and decode.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from conftest import scalar_only
from repro.algebra.builder import query
from repro.confidence.dnf import Dnf
from repro.engine.cache import approx_size
from repro.server.budget import CacheBudget
from repro.urel import from_possible_worlds
from repro.urel.columnar import ColumnarContext, ColumnarURelation
from repro.urel.conditions import TOP, Condition
from repro.urel.evaluate import UEvaluator
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.parallel import ShardExecutor
from test_pushdown import database as pushdown_database
from test_pushdown import few_worlds, plans
from test_urel_differential import _queries, _random_pwdb


def columnar_always(db: UDatabase) -> UDatabase:
    """``db`` with a columnar context that encodes every relation it meets."""
    db.columnar_context = ColumnarContext(db.w, db.condition_pool, min_rows=0)
    return db


@pytest.fixture(scope="module")
def pool():
    with ShardExecutor(2, min_shard_items=1) as executor:
        yield executor


def _absorbed(conditions) -> frozenset:
    """F up to ⊤ absorption: ``{⊤}`` if F holds ⊤, else F."""
    members = frozenset(conditions)
    return frozenset({TOP}) if TOP in members else members


def _scalar_session(udb: UDatabase, q, strategy: str, workers):
    """The indexed scalar path's relation, rows and reports on ``q``, cold
    and then warm (a query memo hit), in one seeded session."""
    with repro.connect(scalar_only(udb), strategy=strategy, rng=0, workers=workers) as db:
        cold = db.query(q)
        relation, reports = cold.relation, cold.confidences()
        assert relation.sorted_rows() == cold.rows
        warm = db.query(q)
        assert warm.relation is relation and warm.confidences() == reports
        return relation, reports


def assert_columnar_reads_like_scalar(make_db, q, strategy: str, workers) -> None:
    """Every property the columnar result must share with the scalar path."""
    reference, expected = _scalar_session(make_db(), q, strategy, workers)
    if strategy == "auto":
        assert reference == UEvaluator(scalar_only(make_db())).evaluate(q).relation

    columnar = columnar_always(make_db())
    with repro.connect(columnar, strategy=strategy, rng=0, workers=workers) as db:
        for _warm in range(2):
            result = db.query(q)
            source = result._relation
            if isinstance(source, ColumnarURelation) and source._decoded is None:
                rows, dnfs = db._evaluator.lineage(source)
                decoded = source.to_urelation()
                assert rows == decoded.sorted_rows()
                assert [frozenset(dnf.members) for dnf in dnfs] == [
                    _absorbed(decoded.conditions_of(row)) for row in rows
                ]
            assert result.rows == reference.sorted_rows()
            assert result.relation == reference
            assert result.confidences() == expected


@pytest.mark.parametrize("workers", [1, "pool"])
@pytest.mark.parametrize("strategy", ["auto", "karp-luby"])
@pytest.mark.parametrize("q_index", range(15))
def test_fixed_queries(q_index, strategy, workers, pool):
    q = query(_queries()[q_index])
    for seed in range(3):
        pwdb = _random_pwdb(seed)
        assert_columnar_reads_like_scalar(
            lambda: from_possible_worlds(pwdb), q, strategy, pool if workers == "pool" else 1
        )


@pytest.mark.parametrize("workers", [1, "pool"])
def test_generated_plans(workers, pool):
    @given(plans().filter(few_worlds), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def check(q, seed):
        assert_columnar_reads_like_scalar(
            lambda: pushdown_database(seed), q, "auto", pool if workers == "pool" else 1
        )

    check()


# --------------------------------------------------------------------------
# Laziness: only the rows of tuples without ⊤ decode their conditions
# --------------------------------------------------------------------------


def pipeline_database(n_rows: int = 400, n_vars: int = 12, seed: int = 11) -> UDatabase:
    """``pipeline_conf``'s shape: R(A, B) ⋈ S(B, C) on round-robin keys;
    condition arities cycle 0, 1, 2 except on R's first fifth of the keys,
    which never pair two ⊤ rows — most answers hold ⊤, a fifth do not."""
    rng = random.Random(seed)
    n_keys = max(4, n_rows // 100) * 2
    w = VariableTable()
    for i in range(n_vars):
        w.add(("x", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})

    def relation(columns, key_first, arities_of):
        rows = []
        for i in range(n_rows):
            key = i % n_keys
            arities = arities_of(key)
            arity = arities[(i // n_keys) % len(arities)]
            cond = Condition(
                {("x", rng.randrange(n_vars)): rng.randint(0, 1) for _ in range(arity)}
            )
            rows.append((cond, (key, i) if key_first else (i, key)))
        return URelation.from_rows(columns, rows)

    db = UDatabase(w=w)
    r_arities = lambda k: (1, 2) if k < n_keys // 5 else (0, 1, 2)  # noqa: E731
    db.set_relation("R", relation(("A", "B"), False, r_arities))
    db.set_relation("S", relation(("B", "C"), True, lambda k: (0, 1, 2)))
    return db


PIPELINE = "project[B](select[A < 100](join(R, S)))"


@pytest.fixture
def decoded_rows(monkeypatch):
    """Condition rows decoded through the seam, one count per call."""
    counts: list[int] = []
    seam = ColumnarURelation._decoded_conditions

    def counted(self, conds):
        counts.append(conds.shape[0])
        return seam(self, conds)

    monkeypatch.setattr(ColumnarURelation, "_decoded_conditions", counted)
    return counts


def test_confidences_decode_only_the_tuples_without_top(decoded_rows):
    reference, expected_reports = _scalar_session(pipeline_database(), PIPELINE, "auto", 1)
    open_rows = [
        row for row in reference.sorted_rows() if TOP not in reference.conditions_of(row)
    ]
    assert 0 < len(open_rows) < len(reference.sorted_rows())
    expected = sum(len(reference.conditions_of(row)) for row in open_rows)
    assert expected < len(reference)

    with repro.connect(pipeline_database()) as db:
        result = db.query(PIPELINE)
        assert isinstance(result._relation, ColumnarURelation)
        assert result.rows == reference.sorted_rows() and decoded_rows == []
        reports = result.confidences()
        assert sum(decoded_rows) == expected and reports == expected_reports
        # Reading the relation afterwards decodes all of it, once.
        assert result.relation == reference
        assert sum(decoded_rows) == expected + len(reference)
        for row in reference.sorted_rows():
            assert set(result.provenance(row)) == set(reference.conditions_of(row))
        # A warm query reads the decode the memo now holds.
        again = db.query(PIPELINE)
        assert again.confidences() == reports and again.relation is result.relation
        assert sum(decoded_rows) == expected + len(reference)


def test_lineage_absorbs_top_on_both_representations():
    rows = [(TOP, (1,)), (Condition({("x", 0): 1}), (1,)), (Condition({("x", 0): 0}), (2,))]
    w = VariableTable()
    w.add(("x", 0), {0: Fraction(1, 2), 1: Fraction(1, 2)})
    db = UDatabase(w=w)
    db.set_relation("R", URelation.from_rows(("A",), rows))
    evaluator = UEvaluator(columnar_always(db), copy_db=False)
    scalar = db.relation("R")
    coded = evaluator._ctx.encode(scalar).rename({})  # a fresh result: no decode at hand
    for rep in (scalar, coded):
        got_rows, dnfs = evaluator.lineage(rep)
        assert got_rows == [(1,), (2,)]
        assert [set(dnf.members) for dnf in dnfs] == [{TOP}, {Condition({("x", 0): 0})}]
    # The frozen per-tuple builder keeps every member.
    assert set(Dnf.for_tuple(scalar, (1,), w).members) == {TOP, Condition({("x", 0): 1})}


# --------------------------------------------------------------------------
# Sizing: the entry, not the session-wide coding context
# --------------------------------------------------------------------------


def _cached_bytes(grow: int) -> int:
    """A fresh session's ``approx_bytes`` after one columnar query, its
    database's coding context first grown by ``grow`` values and conditions."""
    udb = pipeline_database(n_rows=60)
    ctx = UEvaluator(udb, copy_db=False)._ctx
    for i in range(grow):
        ctx.values.code(("filler", i))
        ctx.pool.intern(Condition({("filler", i): 0}))
    with repro.connect(udb) as db:
        result = db.query(PIPELINE)
        assert isinstance(result._relation, ColumnarURelation)
        return db.cache_stats["approx_bytes"]


def test_a_cached_columnar_result_is_sized_without_the_context():
    assert _cached_bytes(0) == _cached_bytes(2000)


@pytest.mark.parametrize("budgeted", [False, True], ids=["on-demand", "budget"])
def test_a_cached_columnar_result_is_sized_again_as_it_grows(budgeted):
    """The query entry counts what its result holds: row groups, lineage
    index and decode are attached to the memoized result after the put."""
    with repro.connect(pipeline_database(n_rows=60)) as db:
        if budgeted:
            db._cache.set_budget(CacheBudget(None))
        result = db.query(PIPELINE)
        [(key, entry)] = [(k, e) for k, e in db._cache._data.items() if k[0] == "query"]
        assert entry.value[0] is result._relation
        sizes = []
        for read in (lambda: None, lambda: result.rows, result.confidences, lambda: result.relation):
            read()
            if budgeted:
                assert entry.nbytes is not None
            db.cache_stats  # sizes what is pending
            assert entry.nbytes == approx_size(key) + approx_size(entry.value)
            sizes.append(entry.nbytes)
        assert sizes == sorted(set(sizes)), sizes
        # A warm query reads what the entry holds: nothing grows, nothing is sized again.
        assert db.query(PIPELINE).confidences() == result.confidences()
        assert entry.nbytes == sizes[-1]
