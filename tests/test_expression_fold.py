"""The one traversal over the expression AST and the handler tables on it.

The sibling of ``tests/test_operator_fold.py``: "added a term node or a
comparison operator, forgot ``certify`` / ``readonce`` / the columnar
lowering" must fail here, in tier-1 — every concrete ``Expr`` class
needs an entry in every table, an unknown class gets the fold's one
``TypeError`` from every entry point, and the walkers agree with
per-row ``evaluate`` on random predicates.
"""

from __future__ import annotations

import ast
import collections
import math
import pathlib

import pytest
from hypothesis import given, settings, strategies as st
from test_algebra_printer import predicates

import repro
from repro.algebra import expressions
from repro.algebra.expressions import (
    And,
    Arith,
    Cmp,
    Expr,
    Term,
    attributes,
    col,
    lit,
    rename_attributes,
    substitute_constants,
    to_nnf,
)
from repro.algebra.operators import fold
from repro.algebra.parser import parse_query
from repro.algebra.printer import _EXPR_HANDLERS, unparse_expression
from repro.algebra.relations import Relation
from repro.algebra.tree import children, rebuild, walk
from repro.core import certify, linear, readonce
from repro.core.certify import certify_predicate, evaluate_term_interval
from repro.core.linear import (
    affine_form,
    atom_epsilon,
    epsilon_for_predicate,
    is_linear,
    min_max_radius,
)
from repro.core.readonce import (
    check_read_once,
    duplicate_variables,
    epsilon_by_corners,
    is_read_once,
)
from repro.core.singularity import _atom_singularity_radius, singularity_radius
from repro.urel import columnar
from repro.urel.columnar import ColumnarContext
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# ``dataclass(slots=True)`` rebuilds each class, so ``__subclasses__`` also
# lists the discarded originals: keep the classes the module actually binds.
# Concrete nodes are the dataclasses (``Term`` / ``BoolExpr`` are not).
NODE_TYPES = sorted(
    {
        cls
        for cls in _subclasses(Expr)
        if hasattr(cls, "__dataclass_fields__")
        and getattr(expressions, cls.__name__, None) is cls
    },
    key=lambda cls: cls.__name__,
)

TABLES = {
    "attribute_occurrences": expressions._OCCURRENCES,
    "map_attributes": expressions._REBUILD,
    "to_nnf": expressions._NNF,
    "unparse_expression": _EXPR_HANDLERS,
    "certify_predicate": certify._HANDLERS,
    "affine_form": linear._AFFINE,
    "is_linear": linear._LINEARITY,
    "min_max_radius": linear._MIN_MAX,
    "epsilon_by_corners": readonce._VARIABLE_DIVISOR,
    "columnar select": columnar._MASK_HANDLERS,
}


class TestHandlerTablesAreComplete:
    def test_the_catalogue_is_the_declared_node_types(self):
        assert set(NODE_TYPES) == set(expressions.NODE_TYPES)
        assert len(NODE_TYPES) == 8

    @pytest.mark.parametrize("walker", TABLES)
    def test_every_node_type_has_a_handler(self, walker):
        missing = [cls.__name__ for cls in NODE_TYPES if cls not in TABLES[walker]]
        assert not missing, f"{walker} has no handler for {missing}"

    def test_one_traversal_serves_both_asts(self):
        from repro.algebra import operators, tree

        for name in ("children", "walk", "fold"):
            assert getattr(operators, name) is getattr(tree, name)
        assert fold is tree.fold

    def test_children_splice_variadic_args(self):
        a, b, c = (col(n) > lit(0) for n in "abc")
        assert children(And((a, b, c))) == (a, b, c)
        assert children(a) == (a.left, a.right)
        assert children(~a) == (a,)
        assert children(col("a")) == ()
        sizes = dict.fromkeys(NODE_TYPES, lambda node, *parts: 1 + sum(parts))
        assert fold(a & (b | ~c), sizes, "size") == len(list(walk(a & (b | ~c)))) == 12

    def test_rebuild_keeps_identity_and_every_other_field(self):
        a, b = col("a") > lit(0), col("b") > lit(1)
        node = And((a, b))
        assert rebuild(node, a, b) is node
        assert rebuild(node, b, a) == And((b, a))
        atom = Cmp("<=", col("a"), lit(2))
        assert rebuild(atom, col("z"), atom.right) == Cmp("<=", col("z"), lit(2))


@pytest.mark.parametrize("op", sorted(expressions.CMP_FUNCS))
def test_every_comparison_operator_is_known_to_every_consumer(op):
    """Discovered from ``CMP_FUNCS``: a new operator must get its
    negation, its Kleene comparison and a sound homogeneity radius."""
    atom = Cmp(op, col("x"), lit(0.25))
    for x in (0.125, 0.25, 1.0):
        truth = atom.evaluate({"x": x})
        assert to_nnf(~atom).evaluate({"x": x}) == (not truth)
        assert certify_predicate(atom, {"x": (x, x)}) == truth
    for x in (0.125, 1.0):  # off the boundary: a positive, homogeneous radius
        eps = min(epsilon_for_predicate(atom, {"x": x}), linear.EPS_CAP) * 0.999
        assert eps > 0
        corners = (x / (1 + eps), x / (1 - eps))
        assert {atom.evaluate({"x": c}) for c in corners} == {atom.evaluate({"x": x})}


class _Twice(Term):
    """A term node class no walker has heard of: ``2 · arg``."""

    __slots__ = ("arg",)
    child_fields = ("arg",)

    def __init__(self, arg: Term):
        self.arg = arg

    def evaluate(self, row):
        return 2 * self.arg.evaluate(row)


_POINT = {"x": 0.5}


class TestUnknownNodeType:
    """One TypeError, from the fold, from every public entry point."""

    ENTRY_POINTS = {
        "attributes": attributes,
        "rename_attributes": lambda e: rename_attributes(e, {"x": "y"}),
        "substitute_constants": lambda e: substitute_constants(e, {"x": 1}),
        "to_nnf": to_nnf,
        "unparse_expression": unparse_expression,
        "certify_predicate": lambda e: certify_predicate(e, {"x": (0.4, 0.6)}),
        "evaluate_term_interval": lambda e: evaluate_term_interval(e, {"x": (0.4, 0.6)}),
        "affine_form": affine_form,
        "is_linear": is_linear,
        "epsilon_for_predicate": lambda e: epsilon_for_predicate(e, _POINT),
        "singularity_radius": lambda e: singularity_radius(e, _POINT),
        "is_read_once": is_read_once,
        "check_read_once": check_read_once,
        "duplicate_variables": duplicate_variables,
        "epsilon_by_corners": lambda e: epsilon_by_corners(e, _POINT),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("nested", [False, True])
    def test_unknown_node_raises_the_fold_type_error(self, entry, nested):
        unknown = _Twice(col("x"))
        expr = Cmp(">", Arith("+", col("x"), unknown), lit(0)) if nested else unknown
        with pytest.raises(TypeError, match=r"\w+: no handler for expression node _Twice"):
            self.ENTRY_POINTS[entry](expr)

    def test_read_once_no_longer_passes_vacuously(self):
        """Regression: ``x + 2·x`` repeats ``x`` inside a node class the
        occurrence counter did not list, so Theorem 5.5's precondition
        was reported as met."""
        repeated = Cmp(">", Arith("+", col("x"), _Twice(col("x"))), lit(0))
        assert repeated.evaluate(_POINT)
        with pytest.raises(TypeError, match="no handler for expression node _Twice"):
            is_read_once(repeated)
        with pytest.raises(TypeError, match="no handler for expression node _Twice"):
            check_read_once(repeated)

    def test_columnar_lowering_raises_too(self):
        rel = _columnar_relation([(1, 2, 3, 4)])
        with pytest.raises(TypeError, match="columnar select: no handler for expression node"):
            columnar._vector_mask(Cmp(">", _Twice(col("A")), lit(0)), rel)


_EXPR_NODES = {"And", "Or", "Not", "Cmp", "Arith", "Attr", "Const", "BoolConst"}


def _class_names(node):
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            yield from _class_names(element)
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr


def test_isinstance_census():
    """What is left are leaf-shape tests inside a handler or a coercion,
    not dispatch: a new ``isinstance`` chain over node classes belongs
    in a handler table instead."""
    root = pathlib.Path(repro.__file__).parent
    census: collections.Counter[str] = collections.Counter()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and _EXPR_NODES & set(_class_names(node.args[1]))
            ):
                census[path.relative_to(root).as_posix()] += 1
    assert dict(census) == {
        "algebra/parser.py": 4,  # surface-syntax coercions (column lists, numbers)
        "algebra/printer.py": 1,  # project item named like its column
        "algebra/relations.py": 1,  # normalize_projection coercion
        "confidence/extensional.py": 1,  # plain-column projection (else: not liftable)
        "core/readonce.py": 1,  # constant predicate: radius ∞
        "urel/columnar.py": 3,  # plain-column projection; const-vs-const guard
    }


def _envs():
    for a in (-2, 0, 3):
        yield {"A": a, "B": a + 1, "C": 1 - a, "D": 2}


def _columnar_relation(rows):
    urel = URelation.from_complete(Relation.from_rows(("A", "B", "C", "D"), rows))
    return ColumnarContext(VariableTable()).encode(urel)


class TestWalkersAgreeWithEvaluate:
    @given(predicates())
    @settings(max_examples=30, deadline=None)
    def test_nnf_round_trip_and_point_boxes_evaluate_like_the_predicate(self, predicate):
        nnf = to_nnf(predicate)
        reparsed = parse_query(f"select[{unparse_expression(predicate)}](R)").condition
        for env in _envs():
            expected = predicate.evaluate(env)
            assert nnf.evaluate(env) == reparsed.evaluate(env) == expected
            box = {name: (value, value) for name, value in env.items()}
            assert certify_predicate(predicate, box) == expected

    @given(predicates(), st.dictionaries(st.sampled_from("ABCD"), st.sampled_from("WXYZ")))
    @settings(max_examples=30, deadline=None)
    def test_attributes_of_a_renamed_predicate_is_the_mapped_set(self, predicate, mapping):
        renamed = rename_attributes(predicate, mapping)
        assert attributes(renamed) == {mapping.get(a, a) for a in attributes(predicate)}
        assert rename_attributes(renamed, {}) == renamed

    @given(predicates())
    @settings(max_examples=30, deadline=None)
    def test_columnar_mask_is_row_wise_evaluate(self, predicate):
        rel = _columnar_relation([tuple(env.values()) for env in _envs()])
        mask = columnar._vector_mask(predicate, rel)
        assert mask is not None  # every generated shape lowers
        assert mask.tolist() == [predicate.evaluate(env) for env in rel._row_envs()]

    def test_unsupported_shape_is_a_handlers_answer(self):
        rel = _columnar_relation([(1, 2, 3, 4)])
        missing_column = col("Z") > lit(0)
        assert columnar._vector_mask(missing_column, rel) is None
        assert columnar._vector_mask((col("A") > lit(0)) & ~missing_column, rel) is None
        assert certify_predicate(missing_column, {"A": (0, 1)}) is None


class TestMinMaxRuleIsWrittenOnce:
    """``epsilon_for_predicate`` and ``singularity_radius`` are the same
    function of the per-atom radius (Theorem 5.2 / Example 5.7 fixtures
    of ``tests/test_core_linear.py`` and ``test_core_readonce_singularity``)."""

    FIXTURES = [
        (col("x") >= lit(0.8), {"x": 0.4}),
        ((col("x") >= lit(0.2)) & (col("x") <= lit(0.9)), {"x": 0.5}),
        ((col("x") >= lit(0.45)) | (col("x") >= lit(0.9)), {"x": 0.5}),
        ((col("x") >= lit(0.8)) | (col("x") >= lit(0.9)), {"x": 0.5}),
        (~(col("x") >= lit(0.8)), {"x": 0.5}),
        (col("x").eq(0.5), {"x": 0.5}),
        (col("x").ne(0.5), {"x": 0.7}),
        (col("p") >= lit(1), {"p": 1.0}),  # Example 5.7
        (col("p") >= lit(1), {"p": 0.9}),
        ((col("x") + col("y")) >= lit(0.6), {"x": 0.5, "y": 0.5}),
        ((col("x") >= lit(0.4)) & (col("x") <= lit(0.7)), {"x": 0.5}),
        (lit(1) >= lit(0), {}),
    ]

    @pytest.mark.parametrize("predicate, point", FIXTURES)
    def test_both_radii_come_from_the_shared_function(self, predicate, point):
        truth, eps = min_max_radius(predicate, point, atom_epsilon)
        assert truth == predicate.evaluate(point)
        assert eps == epsilon_for_predicate(predicate, point)
        truth, radius = min_max_radius(predicate, point, _atom_singularity_radius)
        assert truth == predicate.evaluate(point)
        assert radius == singularity_radius(predicate, point)

    def test_known_values(self):
        assert epsilon_for_predicate(col("p") >= lit(1), {"p": 1.0}) == 0.0
        pred = (col("x") >= lit(0.4)) & (col("x") <= lit(0.7))
        assert singularity_radius(pred, {"x": 0.5}) == pytest.approx(0.2)
        assert singularity_radius(lit(1) >= lit(0), {}) == math.inf

    def test_each_atom_is_evaluated_once_and_radii_are_asked_where_they_decide(self):
        evaluated, asked = [], []

        class Spy(dict):
            def __getitem__(self, name):
                evaluated.append(name)
                return super().__getitem__(name)

        def radius(atom, point):
            asked.append(atom.left.name)
            return 0.25

        a, b, c, d = (col(n) > lit(9 if n == "c" else 0) for n in "abcd")
        deep = a | (b & (c | d))
        truth, value = min_max_radius(deep, Spy(a=1, b=1, c=1, d=1), radius)
        assert (truth, value) == (True, 0.25)
        assert sorted(evaluated) == ["a", "b", "c", "d"]
        assert asked == ["a", "b", "d"]  # c is false under a true Or: never consulted
