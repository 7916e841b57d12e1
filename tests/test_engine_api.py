"""The engine facade: golden parser→engine paths, strategies, cache, shims.

Covers the acceptance criteria of the `repro.engine` redesign:

* every query string the examples use parses, evaluates through
  ``repro.connect``, and round-trips through `repro.algebra.printer` to
  an equivalent plan;
* ``auto`` picks an exact method on read-once instances and Karp–Luby on
  large non-read-once DNFs (and ``explain`` reports the choice);
* one seed threaded through the facade makes whole runs reproducible;
* the per-session memo cache makes repeated computations free;
* the deprecated ``USession`` / ``evaluate`` shims are gone for good.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.algebra.parser import parse_query, parse_session
from repro.algebra.printer import unparse_query, unparse_session
from repro.engine import dnf_is_read_once, resolve_strategy, strategy_names
from repro.generators.coins import coin_database, posterior_query
from repro.generators.hard import bipartite_2dnf, bipartite_2dnf_database, chain_dnf

EXPECTED_U = {("fair", Fraction(1, 3)), ("2headed", Fraction(2, 3))}

# Every query string used by examples/ (quickstart.py assigns the same
# queries piecewise; scripted_session.py runs them as one script).
EXAMPLE_SESSION = """
R := project[CoinType](repair-key[@ Count](Coins));
S := project[CoinType, Toss, Face](
       repair-key[CoinType, Toss @ FProb](
         product(Faces, literal[Toss]{(1), (2)})));
T := join(R,
          project[CoinType](select[Toss = 1 and Face = 'H'](S)),
          project[CoinType](select[Toss = 2 and Face = 'H'](S)));
U := project[CoinType, P1 / P2 -> P](
       join(conf[P1](T), conf[P2](project[](T))));
V := aselect[P1 / P2 <= 0.5 ; conf(CoinType) as P1, conf() as P2](T);
"""

APPROX_POSTERIOR = (
    "project[CoinType, P1 / P2 -> P]"
    "(join(aconf[0.05, 0.01, P1](T), aconf[0.05, 0.01, P2](project[](T))))"
)


class TestGoldenParserEnginePath:
    def test_every_example_query_round_trips(self):
        """parse → unparse → parse reaches a textual fixed point per query.

        (One extra round because decimals parse to exact Fractions, which
        print as a division term — e.g. ``0.5`` → ``(1 / 2)`` → ``1 / 2``.)
        """
        for _name, node in parse_session(EXAMPLE_SESSION):
            text = unparse_query(parse_query(unparse_query(node)))
            assert unparse_query(parse_query(text)) == text

    def test_script_evaluates_to_paper_values(self):
        db = repro.connect(coin_database(), rng=0)
        results = db.run_script(EXAMPLE_SESSION)
        assert set(results) == {"R", "S", "T", "U", "V"}
        assert results["U"].to_complete().rows == EXPECTED_U
        assert {row[0] for row in results["V"]} == {"fair"}

    def test_printed_plan_reevaluates_identically(self):
        """unparse_session output drives a fresh engine to the same answers."""
        assignments = parse_session(EXAMPLE_SESSION)
        printed = unparse_session(assignments)
        original = repro.connect(coin_database(), rng=1).run_script(EXAMPLE_SESSION)
        replayed = repro.connect(coin_database(), rng=1).run_script(printed)
        for name in original:
            assert (
                original[name].relation.possible_tuples().rows
                == replayed[name].relation.possible_tuples().rows
            ), name
        assert replayed["U"].to_complete().rows == EXPECTED_U

    def test_approx_conf_string_path(self):
        db = repro.connect(coin_database(), rng=3)
        db.run_script(EXAMPLE_SESSION)
        approx = db.query(APPROX_POSTERIOR).to_complete()
        values = {coin: p for coin, p in approx.rows}
        assert values["fair"] == pytest.approx(1 / 3, rel=0.2)
        assert values["2headed"] == pytest.approx(2 / 3, rel=0.2)

    def test_builder_and_string_agree(self):
        db = repro.connect(coin_database(), rng=0)
        db.run_script(EXAMPLE_SESSION)
        from_builder = db.query(posterior_query()).to_complete()
        from_string = db.query(
            "project[CoinType, P1 / P2 -> P](join(conf[P1](T), conf[P2](project[](T))))"
        ).to_complete()
        assert from_builder.rows == from_string.rows == EXPECTED_U

    def test_bare_relation_name_is_a_query(self):
        db = repro.connect(coin_database())
        result = db.query("Coins")
        assert result.complete
        assert set(result.columns) == {"CoinType", "Count"}


class TestConnectForms:
    def test_connect_mapping_of_relations(self):
        rel = repro.Relation.from_rows(("A",), [(1,), (2,)])
        db = repro.connect({"R": rel})
        assert db.query("R").to_complete() == rel

    def test_connect_udatabase_shares_state(self):
        udb = coin_database()
        db = repro.connect(udb)
        db.assign("R", "project[CoinType](repair-key[@ Count](Coins))")
        assert "R" in udb.relations  # same object, session-style

    def test_connect_copy_isolates(self):
        udb = coin_database()
        db = repro.connect(udb, copy=True)
        db.assign("R", "project[CoinType](repair-key[@ Count](Coins))")
        assert "R" not in udb.relations

    def test_connect_rejects_garbage(self):
        with pytest.raises(TypeError):
            repro.connect(42)

    def test_unknown_strategy_raises(self):
        with pytest.raises(repro.UnknownStrategyError):
            repro.connect(coin_database(), strategy="quantum")

    def test_every_session_has_an_executor(self):
        """However a session is opened, it runs on a ShardExecutor."""
        from repro.util.parallel import ShardExecutor

        shared = ShardExecutor(1)
        for options in ({}, {"workers": None}, {"workers": 1}, {"workers": shared}):
            with repro.connect(coin_database(), **options) as db:
                assert isinstance(db.executor, ShardExecutor)
                assert isinstance(repro.connect(db).executor, ShardExecutor)
        assert db.executor is shared  # an instance is borrowed, not copied


class TestAutoStrategy:
    def test_read_once_detection(self):
        assert dnf_is_read_once(chain_dnf(30, overlap=False))
        assert not dnf_is_read_once(chain_dnf(16, overlap=True))

    @given(
        st.lists(
            st.dictionaries(st.sampled_from("uvwxyz"), st.integers(0, 1), max_size=3),
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_read_once_check_equals_the_predicate_lowering(self, clauses):
        """The direct clause-disjointness test routes exactly like the
        lowering to a Section 5 predicate it replaced (kept here only):
        ⋁_f ⋀_{X∈dom(f)} (X = 0), one attribute per variable occurrence."""
        from repro.algebra.expressions import And, Attr, Cmp, Const, Or
        from repro.confidence.dnf import Dnf
        from repro.core.readonce import is_read_once
        from repro.urel.conditions import Condition
        from repro.urel.variables import VariableTable

        w = VariableTable()
        for name in "uvwxyz":
            w.add(name, {0: Fraction(1, 2), 1: Fraction(1, 2)})
        dnf = Dnf([Condition(clause) for clause in clauses], w)
        lowered = [
            And(tuple(Cmp("=", Attr(repr(v)), Const(0)) for v in sorted(f.variables, key=repr)))
            for f in dnf.members
            if f.variables
        ]
        expected = is_read_once(Or(tuple(lowered))) if lowered else True
        assert dnf_is_read_once(dnf) == expected

    def test_auto_picks_exact_on_read_once(self):
        """30 disjoint clauses: too big for the size cutoff, still exact."""
        auto = resolve_strategy("auto")
        dnf = chain_dnf(30, overlap=False)
        assert dnf.size > auto.max_exact_size
        assert auto.choose(dnf) == "exact-decomposition"
        report = auto.compute(dnf, random.Random(0))
        assert report.exact and report.method == "exact-decomposition"

    def test_auto_picks_karp_luby_on_large_non_read_once(self):
        auto = resolve_strategy("auto", eps=0.1, delta=0.05)
        dnf = bipartite_2dnf(12, 12, edge_probability=0.5, rng=7)
        assert dnf.size > auto.max_exact_size and not dnf_is_read_once(dnf)
        assert auto.choose(dnf) == "karp-luby"
        report = auto.compute(dnf, random.Random(0))
        assert not report.exact and report.method == "karp-luby"
        assert report.samples > 0 and report.strategy == "auto"

    def test_auto_degenerate_and_small_go_exact(self):
        auto = resolve_strategy("auto")
        small = bipartite_2dnf(3, 3, edge_probability=0.5, rng=1)
        assert auto.choose(small) == "exact-decomposition"

    def test_explain_reports_auto_choice_exact(self):
        db = repro.connect(coin_database(), rng=0)
        db.run_script(EXAMPLE_SESSION)
        plan = db.explain("conf[P](T)")
        assert plan.strategy == "auto"
        assert plan.chosen_methods() == {"exact-decomposition"}
        assert "exact-decomposition" in str(plan)

    def test_explain_reports_auto_choice_karp_luby(self):
        udb = bipartite_2dnf_database(12, 12, edge_probability=0.5, rng=7)
        db = repro.connect(udb, rng=0)
        plan = db.explain("conf[P](Hard)")
        assert plan.chosen_methods() == {"karp-luby"}

    def test_registry_names(self):
        assert {
            "auto",
            "exact-decomposition",
            "exact-enumeration",
            "karp-luby",
            "naive-mc",
        } <= set(strategy_names())

    def test_all_strategies_agree_on_easy_instance(self):
        dnf = bipartite_2dnf(3, 3, edge_probability=0.6, rng=2)
        exact = resolve_strategy("exact-decomposition").compute(dnf, random.Random(0))
        for name in ("exact-enumeration", "karp-luby", "naive-mc", "auto"):
            report = resolve_strategy(name, eps=0.05, delta=0.01).compute(
                dnf, random.Random(0)
            )
            assert float(report.value) == pytest.approx(float(exact.value), abs=0.05)


class TestRngPlumbing:
    def test_same_seed_identical_confidence_runs(self):
        """One facade seed determines every Karp–Luby draw (regression)."""

        def run(seed):
            udb = bipartite_2dnf_database(10, 10, edge_probability=0.5, rng=4)
            db = repro.connect(udb, strategy="karp-luby", eps=0.2, delta=0.1, rng=seed)
            result = db.confidence("Hard")
            return result.relation.to_complete().rows

        assert run(123) == run(123)
        assert run(123) != run(321)  # different seed, different draws

    def test_same_seed_identical_driver_runs(self):
        def run():
            db = repro.connect(coin_database(), rng=99)
            db.run_script(EXAMPLE_SESSION)
            report = db.evaluate_with_guarantee(
                "aselect[P1 / P2 <= 0.5 ; conf(CoinType) as P1, conf() as P2](T)",
                delta=0.05,
                eps0=0.05,
            )
            return (
                frozenset(report.relation.rows),
                report.rounds,
                tuple(sorted((r, b) for r, b in report.tuple_bounds.items())),
            )

        assert run() == run()


class TestEngineResult:
    @pytest.fixture
    def session(self):
        db = repro.connect(coin_database(), rng=0)
        db.run_script(EXAMPLE_SESSION)
        return db

    def test_lazy_confidence_and_provenance(self, session):
        t = session.query("T")
        assert not t.complete
        for row in t:
            report = t.confidence(row)
            assert 0 < report.value < 1
            assert report.exact
            assert len(t.provenance(row)) >= 1
        assert t.confidence(("fair",)).value == Fraction(1, 6)
        assert t.confidence(("2headed",)).value == Fraction(1, 3)

    def test_result_metadata(self, session):
        result = session.query("conf[P](T)")
        assert result.elapsed >= 0
        assert result.source == "conf[P](T)"
        assert len(result) == 2
        assert "complete" in repr(result)

    def test_confidence_method(self, session):
        conf = session.confidence("T", p_name="Pr")
        assert conf.columns[-1] == "Pr"
        values = {row[0]: row[1] for row in conf}
        assert values == {"fair": Fraction(1, 6), "2headed": Fraction(1, 3)}


class TestMemoCache:
    def test_repeated_query_hits_cache(self):
        db = repro.connect(coin_database(), rng=0)
        db.run_script(EXAMPLE_SESSION)
        before = db.cache_stats["hits"]
        first = db.query("conf[P](T)")
        second = db.query("conf[P](T)")
        assert db.cache_stats["hits"] > before
        assert first.relation is second.relation  # literally the cached object

    def test_assignment_invalidates(self):
        db = repro.connect(coin_database(), rng=0)
        db.run_script(EXAMPLE_SESSION)
        u1 = db.query("U")
        db.assign("U", "project[CoinType](U)")  # db version bumps
        u2 = db.query("U")
        assert u1.columns != u2.columns

    def test_clear_cache(self):
        db = repro.connect(coin_database(), rng=0)
        db.query("Coins")
        db.clear_cache()
        assert db.cache_stats["entries"] == 0

    def test_repeated_string_repair_key_is_stable(self):
        """The same string query reuses one plan: W stops growing, cache hits."""
        db = repro.connect(coin_database(), rng=0)
        text = "project[CoinType](repair-key[@ Count](Coins))"
        db.query(text)
        vars_after_first = len(db.w)
        worlds_after_first = db.worlds().n_worlds()
        db.query(text)
        db.query(text)
        assert len(db.w) == vars_after_first
        assert db.worlds().n_worlds() == worlds_after_first
        assert db.cache_stats["hits"] >= 1

    def test_conf_cache_distinguishes_eps_delta(self):
        """A tighter (ε, δ) must not be served a looser cached estimate."""
        from repro.engine import KarpLuby

        udb = bipartite_2dnf_database(10, 10, edge_probability=0.5, rng=4)
        db = repro.connect(udb, rng=0)
        db.confidence("Hard", strategy=KarpLuby(eps=0.5, delta=0.5))
        db.confidence("Hard", strategy=KarpLuby(eps=0.05, delta=0.01))
        conf_keys = [k for k in db._cache._data if k[0] == "conf"]
        # Two distinct entries for the same DNF: the parameters are keyed.
        assert len({k[-1] for k in conf_keys}) == 2

    def test_confidence_override_keeps_session_eps_delta(self):
        udb = bipartite_2dnf_database(10, 10, edge_probability=0.5, rng=4)
        db = repro.connect(udb, eps=0.3, delta=0.2, rng=0)
        db.confidence("Hard", strategy="karp-luby")
        # The override resolves with the session's (ε, δ), not the defaults.
        cached_keys = [k for k in db._cache._data if k[0] == "conf"]
        expected = ("karp-luby", 0.3, 0.2)
        # Every session appends its merge schedule (the executor's plan
        # token) to the key; the strategy configuration is the prefix.
        assert any(k[-1][: len(expected)] == expected for k in cached_keys)

    def test_strategy_swap_invalidates_query_cache(self):
        """Swapping db.strategy must not serve results of the old one."""
        db = repro.connect(coin_database(), rng=0)
        db.run_script(EXAMPLE_SESSION)
        exact = db.query("conf[P](T)")
        assert all(isinstance(row[-1], Fraction) for row in exact.rows)
        db.strategy = resolve_strategy("naive-mc", eps=0.3, delta=0.3)
        sampled = db.query("conf[P](T)")
        assert all(isinstance(row[-1], float) for row in sampled.rows)

    def test_explain_does_not_consume_session_rng(self):
        """A read-only explain call must not perturb later stochastic results."""

        def run(with_explain):
            udb = bipartite_2dnf_database(6, 6, edge_probability=0.5, rng=2)
            db = repro.connect(udb, rng=7)
            if with_explain:
                db.explain("conf[P](Hard)")
            return db.query("aconf[0.3, 0.2, P](Hard)").relation.to_complete().rows

        assert run(True) == run(False)

    def test_shared_conf_subresults_across_queries(self):
        """U's two conf operators re-reach tuple DNFs cached by conf[P](T)."""
        db = repro.connect(coin_database(), rng=0)
        db.run_script(EXAMPLE_SESSION)
        db.clear_cache()
        db.query("conf[P1](T)")
        hits_before = db.cache_stats["hits"]
        db.query("conf[P2](T)")  # different column name, same tuple DNFs
        assert db.cache_stats["hits"] > hits_before


class TestDeprecatedShimsRemoved:
    """The PR-1 ``USession`` / ``evaluate`` shims completed their sunset."""

    def test_usession_is_gone(self):
        from repro import urel

        assert not hasattr(repro, "USession")
        assert not hasattr(urel, "USession")

    def test_toplevel_evaluate_is_gone(self):
        import types

        from repro.urel import evaluate as evaluate_module

        assert not hasattr(repro, "evaluate")
        # `repro.urel.evaluate` survives only as the submodule, not as
        # the old one-shot helper function.
        assert isinstance(evaluate_module, types.ModuleType)
        assert not hasattr(evaluate_module, "evaluate")
        assert "evaluate" not in evaluate_module.__all__

    def test_connect_replaces_the_session_shim(self, coin_udb):
        from repro.generators.coins import (
            evidence_query,
            pick_coin_query,
            toss_query,
        )

        session = repro.connect(coin_udb, strategy="exact-decomposition")
        session.assign("R", pick_coin_query())
        session.assign("S", toss_query(2))
        session.assign("T", evidence_query(["H", "H"]))
        u = session.assign("U", posterior_query())
        assert u.to_complete().rows == EXPECTED_U

    def test_version_is_exposed(self):
        assert repro.__version__.count(".") == 2


class TestOneNumericBackend:
    """numpy is the only engine: no option selects another one."""

    def test_no_entry_point_takes_a_backend(self, coin_udb):
        from repro.core.approx_select import ApproxQueryEvaluator
        from repro.urel.evaluate import UEvaluator

        for build in (
            lambda: repro.connect(coin_udb, backend="numpy"),
            lambda: repro.serve(coin_udb, backend="numpy"),
            lambda: resolve_strategy("karp-luby", backend="numpy"),
            lambda: UEvaluator(coin_udb, backend="numpy"),
            lambda: ApproxQueryEvaluator(coin_udb, 0.1, rounds=1, backend="numpy"),
        ):
            with pytest.raises(TypeError, match="backend"):
                build()

    def test_the_harness_compatibility_points(self, coin_udb):
        from repro.core.driver import evaluate_with_guarantee

        db = repro.connect(coin_udb, rng=0)
        assert db.backend == "numpy"
        query = parse_query("project[CoinType](repair-key[@ Count](Coins))")
        reports = [
            evaluate_with_guarantee(query, coin_udb, 0.1, 0.1, rng=3, backend=backend)
            for backend in (None, "numpy")
        ]
        assert reports[0].relation == reports[1].relation
        for backend in ("python", "auto"):
            with pytest.raises(ValueError, match="backend"):
                evaluate_with_guarantee(query, coin_udb, 0.1, 0.1, rng=3, backend=backend)
