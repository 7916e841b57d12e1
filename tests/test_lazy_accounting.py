"""Pay only for what is read: lazy cache sizing and lazy DNF weights.

Two quantities used to be computed eagerly and are now computed on
first read, with the same numbers wherever they are read:

* a memo entry's byte size — :meth:`MemoCache.put` sizes an entry only
  while a :class:`~repro.server.budget.CacheBudget` is attached; the
  others are sized once, by the first read of the counters, by
  ``evict_lru``, or by a budget attaching;
* a disjunction's member weights — :attr:`Dnf.weights` is computed the
  first time a sampler (or anything else) reads it; exact and bound
  solvers never do;
* a disjunction's trial encoding — :attr:`Dnf.encoded` builds
  it on the first draw and keeps it on the ``Dnf``; a value settled by a
  point enclosure or a certified predicate never builds it.

The old eager ``put`` is copied below as the reference (``_EagerCache``);
the library keeps no second path.
"""

from __future__ import annotations

import pickle
import random
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algebra.expressions import col, lit
from repro.confidence import dissociation_interval
from repro.confidence.batch import BatchKarpLubySampler, _EncodedDnf
from repro.confidence.dnf import Dnf
from repro.confidence.strategies import resolve_strategy
from repro.engine import cache as cache_module
from repro.core.approximator import PredicateApproximator
from repro.engine.cache import MemoCache, _Entry, _next_tick, approx_size
from repro.generators.hard import bipartite_2dnf, chain_dnf, circulant_2dnf
from repro.generators.tpdb import add_tuple_independent
from repro.server import CacheBudget
from repro.urel import UDatabase
from repro.urel.conditions import Condition
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable
from repro.util.parallel import ShardExecutor
from repro.util.scope import run_scope

# --------------------------------------------------------------------------
# Fixtures and data
# --------------------------------------------------------------------------


@pytest.fixture
def sizing_calls(monkeypatch):
    """Counts every ``approx_size`` call the cache makes."""
    calls = []

    def spy(obj, *args, **kwargs):
        calls.append(type(obj).__name__)
        return approx_size(obj, *args, **kwargs)

    monkeypatch.setattr(cache_module, "approx_size", spy)
    return calls


@pytest.fixture
def weight_calls(monkeypatch):
    """Counts every ``VariableTable.weight`` call."""
    calls = []
    weight = VariableTable.weight

    def spy(self, condition):
        calls.append(condition)
        return weight(self, condition)

    monkeypatch.setattr(VariableTable, "weight", spy)
    return calls


def ti_join(seed: int = 1, n_rows: int = 30) -> UDatabase:
    """Tuple-independent R(A,B), S(B,C): every join over them lifts."""
    rng = random.Random(seed)
    db = UDatabase()
    for name, columns, key_first in (("R", ("A", "B"), False), ("S", ("B", "C"), True)):
        rows = []
        for i in range(n_rows):
            key = rng.randrange(n_rows // 3)
            rows.append((((key, i) if key_first else (i, key)), round(rng.uniform(0.1, 0.9), 3)))
        add_tuple_independent(db, name, columns, rows)
    return db


LIFTED = ("project[B](join(R, S))", "select[A < 15](R)", "project[C](join(R, S))")
LIFTED_CONF = "project[B](select[A < 8](join(R, S)))"


def pipeline(seed: int = 1, n_rows: int = 600, n_vars: int = 12) -> UDatabase:
    """R(A,B) ⋈ S(B,C) over shared Boolean variables; lineage is not independent.

    Keys go round-robin and condition sizes cycle; a key whose R-tuples
    all carry a condition yields a DNF that is not trivially true.
    """
    rng = random.Random(seed)
    n_keys = max(4, n_rows // 100)
    w = VariableTable()
    for i in range(n_vars):
        w.add(("x", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})

    def relation(columns, key_first, arities_of):
        rows = []
        for i in range(n_rows):
            key = i % n_keys
            arities = arities_of(key)
            arity = arities[(i // n_keys) % len(arities)]
            pairs = {("x", rng.randint(0, n_vars - 1)): rng.randint(0, 1) for _ in range(arity)}
            rows.append((Condition(pairs), (key, i) if key_first else (i, key)))
        return URelation.from_rows(columns, rows)

    def r_arities(key):
        return (1, 2) if key < n_keys // 5 else (0, 1, 2)

    db = UDatabase(w=w)
    db.set_relation("R", relation(("A", "B"), False, r_arities))
    db.set_relation("S", relation(("B", "C"), True, lambda k: (0, 1, 2)))
    return db


PIPELINE = "project[B](select[A < 30](join(R, S)))"


def live_bytes(cache: MemoCache) -> int:
    return sum(approx_size(key) + approx_size(entry.value) for key, entry in cache._data.items())


class _EagerCache(MemoCache):
    """``put`` as the library had it: every entry sized as it is inserted."""

    def put(self, key, value, volatile: bool = False) -> None:
        if self.maxsize is not None and self.maxsize <= 0:
            return
        nbytes = approx_size(key) + approx_size(value)
        with self._lock:
            old = self._data.pop(key, None)
            if old is not None:
                self._stats.approx_bytes -= old.nbytes
            elif self.maxsize is not None and len(self._data) >= self.maxsize:
                _, evicted = self._data.popitem(last=False)
                self._stats.approx_bytes -= evicted.nbytes
            self._data[key] = _Entry(value, nbytes, _next_tick(), volatile)
            self._stats.approx_bytes += nbytes
            self._stats.entries = len(self._data)
            budget = self._budget
        if budget is not None:
            budget.rebalance()


def put_script(seed: int = 0, n: int = 60):
    """A fixed mix of inserts, replacements, hits and volatile entries."""
    rng = random.Random(seed)
    script = []
    for i in range(n):
        key = ("k", rng.randrange(12))
        op = rng.random()
        if op < 0.2:
            script.append(("get", key))
        else:
            value = list(range(rng.randrange(1, 200)))
            script.append(("put", key, value, op > 0.9))
    return script


def run_script(cache: MemoCache, script, budget: CacheBudget | None = None):
    """Replay ``script``; the trace of entries, bytes and evictions after each step."""
    trace = []
    for step in script:
        if step[0] == "get":
            cache.get(step[1])
        else:
            cache.put(step[1], step[2], volatile=step[3])
        counters = (budget.evictions, budget.bytes_evicted) if budget else ()
        nbytes = [entry.nbytes for entry in cache._data.values()] if budget else []
        trace.append((list(cache._data), nbytes, counters))
    return trace


# --------------------------------------------------------------------------
# Cache: size on demand
# --------------------------------------------------------------------------


class TestSizeOnDemand:
    @pytest.mark.parametrize("data", ["lifted", "pipeline"])
    def test_unbudgeted_session_sizes_nothing_until_read(self, data, sizing_calls):
        db = ti_join() if data == "lifted" else pipeline(n_rows=200)
        query, conf_query = (LIFTED[0], LIFTED_CONF) if data == "lifted" else (PIPELINE, PIPELINE)
        with repro.connect(db, rng=1) as session:
            session.query(query).confidences()
            session.confidence_all(conf_query)
            session.topk(conf_query, 2)
            session.query(conf_query).confidence(next(iter(session.query(conf_query).rows)))
            assert sizing_calls == []
            stats = session.cache_stats
            assert len(sizing_calls) == 2 * stats["entries"] > 0
            assert stats["approx_bytes"] == live_bytes(session._cache)
            session.cache_stats  # settled once: a second read sizes nothing
            assert len(sizing_calls) == 2 * stats["entries"]

    def test_cache_stats_is_one_snapshot(self):
        with repro.connect(ti_join(), rng=1) as session:
            session.confidence_all(LIFTED_CONF)
            stats = session.cache_stats
            assert set(stats) == {"hits", "misses", "entries", "approx_bytes"}
            assert stats == session._cache.stats.as_dict()
            assert stats["approx_bytes"] == session._cache.approx_bytes

    def test_every_reader_settles(self, sizing_calls):
        for read in (
            lambda c: c.approx_bytes,
            lambda c: c.stats,
            lambda c: c.snapshot(),
            lambda c: c.evict_lru(),
            lambda c: c.set_budget(CacheBudget(None)),
        ):
            cache = MemoCache(8)
            cache.put("a", list(range(50)))
            cache.put("b", "x" * 300)
            assert sizing_calls == []
            read(cache)
            assert len(sizing_calls) == 4
            del sizing_calls[:]

    def test_replacing_and_evicting_unsized_entries_stays_exact(self):
        cache = MemoCache(3)
        for i, key in enumerate("abcabdeaf"):
            cache.put(key, list(range(10 * (i + 1))))
            assert cache._pending == any(e.nbytes is None for e in cache._data.values())
        assert cache.approx_bytes == live_bytes(cache) > 0
        cache.put("a", "short")  # replace a sized entry with an unsized one
        cache.put("g", "new")  # maxsize-evict a sized entry
        assert 0 < cache.approx_bytes == live_bytes(cache)
        freed = cache.evict_lru()
        assert freed > 0 and 0 < cache.approx_bytes == live_bytes(cache)
        cache.clear()
        assert cache.approx_bytes == 0 and not cache._pending

    def test_unbudgeted_bytes_equal_eager_on_plain_values(self):
        script = put_script(3)
        lazy, eager = MemoCache(6), _EagerCache(6)
        assert run_script(lazy, script) == run_script(eager, script)
        assert lazy.stats.as_dict() == eager.stats.as_dict()

    @pytest.mark.parametrize("max_bytes", [None, 0, 1500, 4000])
    def test_budgeted_sequence_equals_eager(self, max_bytes):
        script = put_script(1, n=120)
        traces = []
        for cls in (MemoCache, _EagerCache):
            cache, budget = cls(8), CacheBudget(max_bytes)
            budget.register(cache)
            traces.append((run_script(cache, script, budget), cache.stats.as_dict()))
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("max_bytes", [0, 1000, 2500])
    def test_late_attach_evicts_like_an_eager_cache(self, max_bytes, sizing_calls):
        script = put_script(2)
        lazy, eager = MemoCache(8), _EagerCache(8)
        run_script(lazy, script)
        run_script(eager, script)
        del sizing_calls[:]
        budgets = []
        for cache in (lazy, eager):
            budget = CacheBudget(max_bytes)
            budget.register(cache)  # attach, then rebalance at once
            budgets.append((budget.evictions, budget.bytes_evicted, list(cache._data)))
        assert budgets[0] == budgets[1]
        assert budgets[0][0] > 0
        assert len(sizing_calls) == 2 * len(eager._data) + 2 * budgets[0][0]

    def test_put_racing_an_attach_is_sized(self):
        """A put that read "no budget" but inserts after an attach sizes its entry."""
        cache = MemoCache(None)
        cache.put("before", list(range(20)))
        with cache._lock:
            writer = threading.Thread(target=cache.put, args=("during", list(range(30))))
            writer.start()
            time.sleep(0.05)  # the put has read the attachment and waits for the lock
            cache._settle()  # what set_budget does under the lock
            cache._budget = CacheBudget(None)
        writer.join()
        with cache._lock:
            assert not cache._pending
            assert [entry.nbytes is None for entry in cache._data.values()] == [False, False]
        assert cache.approx_bytes == live_bytes(cache)

    def test_serve_mixed_shaped_session_bytes_equal_eager_sizing(self):
        db = ti_join(seed=4, n_rows=60)
        totals = []
        for attach in (False, True):
            with repro.connect(db, copy=True, rng=4) as session:
                if attach:  # sized at every put, as before
                    CacheBudget(None).register(session._cache)
                for text in LIFTED:
                    session.query(text)
                session.confidence_all(LIFTED_CONF)
                totals.append(session.cache_stats)
        assert totals[0] == totals[1]


# --------------------------------------------------------------------------
# Dnf: weigh on first use
# --------------------------------------------------------------------------


def eager_weights(dnf: Dnf) -> tuple:
    return tuple(dnf.w.weight(f) for f in dnf.members)


def typed(values) -> list:
    return [(type(v), v) for v in values]


def mixed_table(kind: str) -> VariableTable:
    w = VariableTable()
    if kind == "fraction":
        w.add("x", {0: Fraction(1, 3), 1: Fraction(2, 3)})
        w.add("y", {0: Fraction(1, 4), 1: Fraction(1, 4), 2: Fraction(1, 2)})
        w.add("z", {1: Fraction(1)})
    elif kind == "float":
        w.add("x", {0: 0.3, 1: 0.7})
        w.add("y", {0: 0.25, 1: 0.25, 2: 0.5})
        w.add("z", {1: 1.0})
    else:
        w.add("x", {0: Fraction(1, 3), 1: Fraction(2, 3)})
        w.add("y", {0: 0.25, 1: 0.25, 2: 0.5})
        w.add("z", {1: 1})
    return w


MEMBERS = [
    Condition({"x": 1}),
    Condition({"x": 0, "y": 2}),
    Condition({"y": 7}),  # out of the domain: weight Fraction(0)
    Condition({"x": 1, "y": 2, "z": 1}),
    Condition({"z": 1}),
    Condition({"x": 5, "z": 1}),  # out of the domain, after a factor
    Condition(),
]


class TestWeighOnFirstUse:
    def test_pipeline_confidence_all_weighs_nothing(self, weight_calls):
        with repro.connect(pipeline(), rng=1) as session:
            reports = session.confidence_all(PIPELINE)
        routes = {r.method for r in reports.values()}
        assert routes == {"exact-decomposition", "dissociation-bounds"}
        assert weight_calls == []

    @pytest.mark.parametrize("kind", ["fraction", "float", "mixed"])
    def test_weights_equal_eager_in_value_and_type(self, kind, weight_calls):
        dnf = Dnf(MEMBERS, mixed_table(kind))
        assert weight_calls == []
        assert typed(dnf.weights) == typed(eager_weights(dnf))
        assert Fraction(0) in dnf.weights and type(dnf.weights[2]) is Fraction
        calls = len(weight_calls)
        assert dnf.weights is dnf.weights  # computed once
        assert len(weight_calls) == calls
        eager = eager_weights(dnf)
        in_order = sum((eager[j] for j in dnf.encoded.order), Fraction(0))
        assert typed([dnf.total_weight]) == typed([in_order])

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["fraction", "float", "mixed"]),
        clauses=st.lists(
            st.dictionaries(st.sampled_from("xyz"), st.integers(0, 3), max_size=3), max_size=8
        ),
    )
    def test_hypothesis_drawn_weights(self, kind, clauses):
        dnf = Dnf([Condition(c) for c in clauses], mixed_table(kind))
        assert typed(dnf.weights) == typed(eager_weights(dnf))

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickle_round_trip(self, read_first):
        dnf = Dnf(MEMBERS, mixed_table("mixed"))
        if read_first:
            dnf.weights
        clone = pickle.loads(pickle.dumps(dnf))
        assert hasattr(clone, "_weights") == read_first
        assert clone.members == dnf.members
        assert typed(clone.weights) == typed(eager_weights(dnf))

    def test_threads_racing_the_first_read_agree(self):
        dnf = circulant_2dnf(12, rng=3)
        barrier = threading.Barrier(8)
        seen = []

        def read():
            barrier.wait()
            seen.append(dnf.weights)

        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(seen) == 8 and all(typed(w) == typed(eager_weights(dnf)) for w in seen)


# --------------------------------------------------------------------------
# Dnf: encode on first draw
# --------------------------------------------------------------------------


def encoding_state(enc: _EncodedDnf) -> list:
    """Every slot of an encoding, numpy tables as nested lists."""
    state = []
    for slot in _EncodedDnf.__slots__:
        value = getattr(enc, slot, None)
        if slot == "groups" and value is not None:
            value = [(clauses.tolist(), literals.tolist()) for clauses, literals in value]
        elif slot == "edges" and value is not None:
            value = [edges.tolist() for edges in value]
        elif hasattr(value, "tolist"):
            value = (str(value.dtype), value.tolist())
        state.append(value)
    return state


def exclusive_pair() -> Dnf:
    """Two alternatives of one variable: a point enclosure (P = 7/10)."""
    w = VariableTable()
    w.add(0, {0: Fraction(3, 10), 1: Fraction(4, 10), 2: Fraction(3, 10)})
    return Dnf([Condition({0: 0}), Condition({0: 1})], w)


class TestEncodeOnFirstDraw:
    @pytest.mark.parametrize("how", ["run_rounds", "decide"])
    def test_settled_values_never_encode_or_weigh(self, how, weight_calls):
        point = exclusive_pair()
        loose = circulant_2dnf(12, rng=3)
        box = dissociation_interval(loose, 64)
        assert not box.is_exact and box.lower > Fraction(1, 10)
        approximator = PredicateApproximator(
            col("P") + col("Q") > lit(0.1),
            {"P": point, "Q": loose},
            0.1,
            rng=1,
            bounds_budget=64,
        )
        decision = approximator.run_rounds(4) if how == "run_rounds" else approximator.decide(0.1)
        assert decision.certified_by_bounds and decision.value and decision.total_trials == 0
        for dnf in (point, loose):
            assert not hasattr(dnf, "_encoded") and not hasattr(dnf, "_weights")
        assert weight_calls == []

    @pytest.mark.parametrize("kind", ["fraction", "float", "mixed"])
    def test_single_member_keeps_its_exact_float(self, kind):
        for member in MEMBERS:
            dnf = Dnf([member], mixed_table(kind))
            sampler = BatchKarpLubySampler(dnf)
            want = _EncodedDnf(Dnf([member], mixed_table(kind))).total_weight
            assert sampler.is_exact and typed([sampler.estimate]) == typed([want])
            assert not hasattr(dnf, "_encoded")

    def test_first_draw_encodes_once_per_dnf(self):
        dnf = circulant_2dnf(8, rng=11)
        first = BatchKarpLubySampler(dnf, 3)
        assert not hasattr(dnf, "_encoded")
        first.run(50)
        second = BatchKarpLubySampler(dnf, 3)
        assert second.dnf.encoded is first.dnf.encoded is dnf._encoded
        second.run(50)
        assert (first.positives, first.estimate) == (second.positives, second.estimate)

    def test_pickle_round_trip(self):
        dnf = circulant_2dnf(8, rng=11)
        BatchKarpLubySampler(dnf, 3).run(10)
        clone = pickle.loads(pickle.dumps(dnf))
        assert clone.members == dnf.members
        assert encoding_state(clone._encoded) == encoding_state(_EncodedDnf(dnf))
        samplers = [BatchKarpLubySampler(d, 7) for d in (dnf, clone)]
        for sampler in samplers:
            sampler.run(300)
        assert samplers[0].snapshot() == samplers[1].snapshot()

    def test_threads_racing_the_first_encode_agree(self):
        dnf = circulant_2dnf(12, rng=3)
        samplers = [BatchKarpLubySampler(dnf, 5) for _ in range(8)]
        barrier = threading.Barrier(len(samplers))
        seen = []

        def draw(sampler):
            barrier.wait()
            sampler.run(200)
            seen.append((encoding_state(sampler.dnf.encoded), sampler.estimate))

        threads = [threading.Thread(target=draw, args=(s,)) for s in samplers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        want = BatchKarpLubySampler(circulant_2dnf(12, rng=3), 5)
        want.run(200)
        expected = (encoding_state(want.dnf.encoded), want.estimate)
        assert len(seen) == len(samplers) and all(got == expected for got in seen)


# Karp–Luby on generators/hard.py instances at (ε, δ) = (0.2, 0.1), rng
# seed 5: (estimate, trials), recorded with eagerly computed weights;
# `circulant` re-pinned when samplers began indexing F in an order of the data.
KARP_LUBY_PINS = {
    "bipartite": (0.8352694018783984, 2023),
    "bipartite-float": (0.5959062592702463, 3371),
    "circulant": (1.038075820508066, 5393),
    "chain": (0.7096786950074149, 2023),
}


def hard_instances() -> dict[str, Dnf]:
    return {
        "bipartite": bipartite_2dnf(5, 5, rng=3),
        "bipartite-float": bipartite_2dnf(4, 6, edge_probability=0.5, var_probability=0.3, rng=7),
        "circulant": circulant_2dnf(8, rng=11),
        "chain": chain_dnf(9, var_probability=0.4),
    }


def test_karp_luby_reports_are_unchanged_on_hard_instances():
    strategy = resolve_strategy("karp-luby", eps=0.2, delta=0.1)
    for name, dnf in hard_instances().items():
        report = strategy.compute(dnf, random.Random(5))
        assert (report.value, report.samples) == KARP_LUBY_PINS[name], name


def _weigh_shard(dnfs: list) -> list:
    """Shard task: whether each DNF arrived weighed, and its weights."""
    return [(hasattr(dnf, "_weights"), dnf.weights) for dnf in dnfs]


@pytest.mark.parametrize("workers", [1, 2])
def test_unweighed_dnfs_cross_the_pool(workers):
    """Sharded maps ship DNFs with the slot unset; the answers do not move."""
    dnfs = [dnf for _ in range(3) for dnf in hard_instances().values()]
    strategy = resolve_strategy("karp-luby", eps=0.3, delta=0.2)
    with ShardExecutor(workers, min_shard_items=1) as executor, run_scope(executor=executor):
        shipped = executor.map_items(_weigh_shard, dnfs)
        got = strategy.compute_batch(dnfs, random.Random(9))
    assert [arrived for arrived, _ in shipped] == [False] * len(dnfs)
    assert [typed(w) for _, w in shipped] == [typed(eager_weights(d)) for d in dnfs]
    fresh = [dnf for _ in range(3) for dnf in hard_instances().values()]
    for dnf in fresh:
        dnf.weights
    with run_scope(executor=ShardExecutor(1, min_shard_items=1)):
        want = strategy.compute_batch(fresh, random.Random(9))
    assert [(r.value, r.samples) for r in got] == [(r.value, r.samples) for r in want]
