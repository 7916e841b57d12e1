"""Tests for the calculus, its compilation, and the Theorem 4.4 rewriting."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.algebra.expressions import col, lit
from repro.algebra.relations import Relation
from repro.calculus import (
    Atom,
    ConjunctiveQuery,
    Egd,
    ExistentialQuery,
    QVar,
    boolean_confidence,
    probability,
    resolve_positional,
    theorem_44_algebra,
    theorem_44_probability,
    theorem_44_terms,
)
from repro.generators.coins import coin_database, pick_coin_query, toss_query
from repro.generators.tpdb import tuple_independent
import repro
from repro.urel import UEvaluator, enumerate_worlds
from repro.worlds.database import PossibleWorldsDB, World

X, Y, Z = QVar("x"), QVar("y"), QVar("z")


def _simple_world(rows_r, rows_s=()):
    return {
        "R": Relation.from_rows(("A", "B"), rows_r),
        "S": Relation.from_rows(("B",), rows_s),
    }


class TestMatching:
    def test_atom_match(self):
        world = _simple_world([(1, 2), (3, 4)])
        q = ConjunctiveQuery([Atom("R", [X, Y])])
        assert len(list(q.matches(world))) == 2

    def test_constant_filter(self):
        world = _simple_world([(1, 2), (3, 4)])
        q = ConjunctiveQuery([Atom("R", [lit(1).value, Y])])
        bindings = list(q.matches(world))
        assert bindings == [{"y": 2}]

    def test_join_via_shared_variable(self):
        world = _simple_world([(1, 2), (3, 4)], [(2,)])
        q = ConjunctiveQuery([Atom("R", [X, Y]), Atom("S", [Y])])
        assert list(q.matches(world)) == [{"x": 1, "y": 2}]

    def test_repeated_variable_in_atom(self):
        world = _simple_world([(1, 1), (1, 2)])
        q = ConjunctiveQuery([Atom("R", [X, X])])
        assert list(q.matches(world)) == [{"x": 1}]

    def test_constraint_filters(self):
        world = _simple_world([(1, 2), (3, 4)])
        q = ConjunctiveQuery([Atom("R", [X, Y])], col("x") >= lit(2))
        assert list(q.matches(world)) == [{"x": 3, "y": 4}]

    def test_arity_mismatch(self):
        world = _simple_world([(1, 2)])
        q = ConjunctiveQuery([Atom("R", [X])])
        with pytest.raises(ValueError, match="arity"):
            list(q.matches(world))

    def test_existential_or(self):
        world = _simple_world([(1, 2)], [])
        phi = ExistentialQuery.of(Atom("S", [X])).or_(
            ExistentialQuery.of(Atom("R", [X, Y]))
        )
        assert phi.holds(world)

    def test_existential_and_requires_distinct_vars(self):
        a = ExistentialQuery.of(Atom("R", [X, Y]))
        with pytest.raises(ValueError, match="rename"):
            a.and_(a)

    def test_empty_cq_rejected(self):
        with pytest.raises(ValueError, match="at least one atom"):
            ConjunctiveQuery([])


class TestEgd:
    def _fd_world(self, rows):
        return {"R": Relation.from_rows(("K", "V"), rows)}

    def _fd(self) -> Egd:
        k, v1, v2 = QVar("k"), QVar("v1"), QVar("v2")
        body = ExistentialQuery.of(Atom("R", [k, v1])).and_(
            ExistentialQuery.of(Atom("R", [QVar("k2"), v2]))
        )
        # ∀ k,v1,k2,v2: R(k,v1) ∧ R(k2,v2) ∧ k=k2 → v1=v2  — expressed
        # with the equality pulled into the head's antecedent side:
        head = (~col("k").eq(col("k2"))) | col("v1").eq(col("v2"))
        return Egd(body, head)

    def test_fd_holds(self):
        assert self._fd().holds(self._fd_world([(1, "a"), (2, "b")]))

    def test_fd_violated(self):
        assert not self._fd().holds(self._fd_world([(1, "a"), (1, "b")]))

    def test_negation_is_existential_violation_finder(self):
        neg = self._fd().negation()
        assert neg.holds(self._fd_world([(1, "a"), (1, "b")]))
        assert not neg.holds(self._fd_world([(1, "a"), (2, "b")]))


class TestProbability:
    def _two_world_db(self) -> PossibleWorldsDB:
        w1 = World(_simple_world([(1, 2)], [(2,)]), Fraction(1, 4))
        w2 = World(_simple_world([(3, 4)], [(9,)]), Fraction(3, 4))
        return PossibleWorldsDB((w1, w2))

    def test_probability_sums_matching_worlds(self):
        db = self._two_world_db()
        phi = ExistentialQuery.of(Atom("R", [X, Y]), Atom("S", [Y]))
        assert probability(phi, db) == Fraction(1, 4)

    def test_egd_probability(self):
        db = self._two_world_db()
        k, v1, k2, v2 = QVar("k"), QVar("v1"), QVar("k2"), QVar("v2")
        body = ExistentialQuery.of(Atom("S", [k])).and_(
            ExistentialQuery.of(Atom("S", [k2]))
        )
        egd = Egd(body, col("k").eq(col("k2")))
        assert probability(egd, db) == 1  # singleton S in both worlds


class TestCompilation:
    def test_compiled_cq_agrees_with_matching(self):
        rows = [((1, 2), Fraction(1, 2)), ((3, 2), Fraction(1, 3))]
        db = tuple_independent("R", ("A", "B"), rows)
        phi = ExistentialQuery.of(Atom("R", [X, Y]), constraint=col("x") >= lit(2))
        p_compiled = boolean_confidence(phi, db)
        p_reference = probability(phi, enumerate_worlds(db))
        assert p_compiled == p_reference

    def test_constant_in_atom(self):
        rows = [((1, 2), Fraction(1, 2)), ((3, 4), Fraction(1, 4))]
        db = tuple_independent("R", ("A", "B"), rows)
        phi = ExistentialQuery.of(Atom("R", [3, Y]))
        assert boolean_confidence(phi, db) == Fraction(1, 4)

    def test_repeated_variable_compiles(self):
        rows = [((1, 1), Fraction(1, 2)), ((1, 2), Fraction(1, 2))]
        db = tuple_independent("R", ("A", "B"), rows)
        phi = ExistentialQuery.of(Atom("R", [X, X]))
        assert boolean_confidence(phi, db) == Fraction(1, 2)

    def test_union_compiles(self):
        rows = [((1, 2), Fraction(1, 2))]
        db = tuple_independent("R", ("A", "B"), rows)
        phi = ExistentialQuery.of(Atom("R", [X, 99])).or_(
            ExistentialQuery.of(Atom("R", [QVar("u"), QVar("v")]))
        )
        assert boolean_confidence(phi, db) == Fraction(1, 2)

    def test_false_query_probability_zero(self):
        rows = [((1, 2), Fraction(1, 2))]
        db = tuple_independent("R", ("A", "B"), rows)
        phi = ExistentialQuery.of(Atom("R", [7, 7]))
        assert boolean_confidence(phi, db) == 0

    def test_join_across_relations(self):
        db = tuple_independent("R", ("A", "B"), [((1, 2), Fraction(1, 2))])
        from repro.generators.tpdb import add_tuple_independent

        add_tuple_independent(db, "S", ("B",), [((2,), Fraction(1, 2))])
        phi = ExistentialQuery.of(Atom("R", [X, Y]), Atom("S", [Y]))
        assert boolean_confidence(phi, db) == Fraction(1, 4)


class TestTheorem44:
    def _coin_db(self):
        db = coin_database()
        session = repro.connect(db, strategy="exact-decomposition")
        session.assign("R", pick_coin_query())
        session.assign("S", toss_query(2))
        return db

    def _same_face_egd(self) -> Egd:
        y1, y2 = QVar("y1"), QVar("y2")
        t1, t2, f1, f2 = QVar("t1"), QVar("t2"), QVar("f1"), QVar("f2")
        body = ExistentialQuery.of(Atom("R", [y1]), Atom("S", [y1, t1, f1])).and_(
            ExistentialQuery.of(Atom("R", [y2]), Atom("S", [y2, t2, f2]))
        )
        return Egd(body, col("f1").eq(col("f2")))

    def test_rewriting_matches_reference(self):
        db = self._coin_db()
        pw = enumerate_worlds(db)
        phi = ExistentialQuery.of(Atom("R", [X]), Atom("S", [X, 1, "H"]))
        egd = self._same_face_egd()
        reference = sum(
            w.probability
            for w in pw.worlds
            if phi.holds(w.relations) and egd.holds(w.relations)
        )
        assert theorem_44_probability(phi, [egd], db) == reference

    def test_terms_expansion_signs(self):
        phi = ExistentialQuery.of(Atom("R", [X]))
        egd = self._same_face_egd()
        terms = theorem_44_terms(phi, [egd, egd])
        signs = sorted(sign for sign, _ in terms)
        assert signs == [-1, -1, 1, 1]

    def test_single_egd_is_paper_formula(self):
        """Pr[φ∧ψ] = Pr[φ] − Pr[φ∧¬ψ] term-by-term."""
        db = self._coin_db()
        phi = ExistentialQuery.of(Atom("R", [X]), Atom("S", [X, 1, "H"]))
        egd = self._same_face_egd()
        p_phi = boolean_confidence(phi, db)
        p_viol = boolean_confidence(phi.and_(egd.negation()), db)
        assert theorem_44_probability(phi, [egd], db) == p_phi - p_viol

    def test_algebra_expression_evaluates(self):
        """The literal paper expression, when both probabilities are > 0."""
        from repro.calculus.compile import resolve_positional

        db = self._coin_db()
        phi = ExistentialQuery.of(Atom("R", [X]), Atom("S", [X, 1, "H"]))
        egd = self._same_face_egd()
        plan = theorem_44_algebra(phi, egd)
        schemas = {name: db.schema_of(name) for name in db.relation_names}
        resolved = resolve_positional(plan, schemas)
        out = UEvaluator(db, copy_db=True).evaluate(resolved).relation
        ((_, vals),) = out.rows
        assert vals[0] == theorem_44_probability(phi, [egd], db)

    def test_conditional_probability_use_case(self):
        """Pr[chosen coin fair | all tosses same face] via the rewriting."""
        db = self._coin_db()
        pw = enumerate_worlds(db)
        egd = self._same_face_egd()
        fair = ExistentialQuery.of(Atom("R", ["fair"]))
        p_joint = theorem_44_probability(fair, [egd], db)
        p_given = probability(egd, pw)
        reference_joint = sum(
            w.probability
            for w in pw.worlds
            if fair.holds(w.relations) and egd.holds(w.relations)
        )
        assert p_joint == reference_joint
        assert 0 < p_joint < p_given


class TestResolvePositional:
    """One rebuild pass over the whole operator catalogue: markers below
    ``Product`` / ``Difference`` (and every other operator) are resolved,
    not returned unvisited."""

    SCHEMAS = {"R": ("A", "B"), "S": ("B",)}

    def _marker(self, relation, arity):
        from repro.calculus.compile import _positional

        return _positional(relation, arity, [f"__a{i}" for i in range(arity)])

    def _resolved(self, relation):
        from repro.algebra.operators import BaseRel, Rename

        columns = self.SCHEMAS[relation]
        return Rename(BaseRel(relation), {c: f"__a{i}" for i, c in enumerate(columns)})

    def test_marker_below_product_and_difference_is_resolved(self):
        from repro.algebra.operators import Difference, Poss, Product, Project, walk
        from repro.calculus.compile import _PositionalRel

        r, s = self._marker("R", 2), self._marker("S", 1)
        plan = Poss(Difference(Project(Product(r, s), ["__a0"]), Project(r, ["__a0"])))
        resolved = resolve_positional(plan, self.SCHEMAS)
        assert not any(isinstance(node, _PositionalRel) for node in walk(resolved))
        product = resolved.child.left.child
        assert product == Product(self._resolved("R"), self._resolved("S"))
        assert resolved.child.right == Project(self._resolved("R"), ["__a0"])

    def test_marker_free_subtrees_are_shared_not_copied(self):
        from repro.algebra.operators import BaseRel, Join, RepairKey

        kept = RepairKey(BaseRel("R"), ["A"], "B")
        resolved = resolve_positional(Join(kept, self._marker("S", 1)), self.SCHEMAS)
        assert resolved.left is kept and resolved.right == self._resolved("S")

    def test_arity_mismatch_raises_the_same_error(self):
        from repro.algebra.operators import Product

        plan = Product(self._marker("S", 1), self._marker("R", 3))
        with pytest.raises(
            ValueError, match="atom arity 3 does not match relation 'R' arity 2"
        ):
            resolve_positional(plan, self.SCHEMAS)
