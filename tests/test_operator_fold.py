"""The one fold over the operator AST and the seven handler tables on it.

"Added an operator, forgot a walker" must fail here, in tier-1, not at
query time: every concrete node class needs an entry in every table —
the pushdown routes included, where it says whether a selection passes;
an unknown node class gets the fold's one ``TypeError`` from every
walker; and every evaluator agrees with ``output_schema`` on the
columns of every operator's result.
"""

from __future__ import annotations

import pytest

import repro
from repro.algebra import operators
from repro.algebra.builder import literal, rel
from repro.algebra.expressions import col, lit
from repro.algebra.operators import Query, Select, fold, output_schema
from repro.algebra.printer import _QUERY_HANDLERS, unparse_query
from repro.algebra.pushdown import _ROUTES as PUSHDOWN_ROUTES
from repro.algebra.pushdown import push
from repro.algebra.relations import Relation
from repro.core.approx_select import ApproxQueryEvaluator
from repro.engine.plan import _PlanPass, explain_plan
from repro.engine.strategies import resolve_strategy
from repro.provenance.trails import _HANDLERS as PROVENANCE_HANDLERS
from repro.provenance.trails import evaluate_with_provenance
from repro.urel.evaluate import UEvaluator
from repro.urel.udatabase import UDatabase
from repro.util.backends import available_backends
from repro.worlds.database import PossibleWorldsDB
from repro.worlds.evaluate import _Engine, evaluate_worlds


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# ``dataclass(slots=True)`` rebuilds each class, so ``__subclasses__`` also
# lists the discarded originals: keep the classes the module actually binds.
NODE_TYPES = sorted(
    {
        cls
        for cls in _subclasses(Query)
        if not cls.__name__.startswith("_") and getattr(operators, cls.__name__, None) is cls
    },
    key=lambda cls: cls.__name__,
)

TABLES = {
    "output_schema": operators._SCHEMA_HANDLERS,
    "unparse_query": _QUERY_HANDLERS,
    "UEvaluator": UEvaluator.HANDLERS,
    "worlds.evaluate": _Engine.HANDLERS,
    "ApproxQueryEvaluator": ApproxQueryEvaluator.HANDLERS,
    "explain": _PlanPass.HANDLERS,
    "evaluate_with_provenance": PROVENANCE_HANDLERS,
    "pushdown": PUSHDOWN_ROUTES,
}

# Operators outside positive UA[σ̂]: provenance documents a TypeError.
NOT_POSITIVE = {"Difference", "RepairKey", "Conf", "ApproxConf", "Cert"}


def _relations():
    return {
        "R": Relation.from_rows(("A", "B"), [(1, 1), (1, 2), (2, 1), (3, 3)]),
        "S": Relation.from_rows(("B", "C"), [(1, 5), (2, 6), (3, 7)]),
    }


def _udb() -> UDatabase:
    return UDatabase.from_complete(_relations())


class TestHandlerTablesAreComplete:
    def test_the_catalogue_is_the_fifteen_operators(self):
        assert len(NODE_TYPES) == 15

    @pytest.mark.parametrize("walker", TABLES)
    def test_every_node_type_has_a_handler(self, walker):
        missing = [cls.__name__ for cls in NODE_TYPES if cls not in TABLES[walker]]
        assert not missing, f"{walker} has no handler for {missing}"

    def test_annotated_table_covers_every_operator_with_operands(self):
        with_operands = {cls for cls in NODE_TYPES if cls.child_fields}
        with_operands.discard(operators.ApproxSelect)  # σ̂ is its own handler
        assert set(ApproxQueryEvaluator.ANNOTATED) == with_operands

    @pytest.mark.parametrize("name", sorted(NOT_POSITIVE))
    def test_provenance_rejects_non_positive_operators(self, name):
        node_type = getattr(operators, name)
        with pytest.raises(TypeError, match="positive UA"):
            PROVENANCE_HANDLERS[node_type]({}, object())

    def test_provenance_handles_the_positive_operators(self):
        rejected = {
            cls.__name__
            for cls, handler in PROVENANCE_HANDLERS.items()
            if handler is PROVENANCE_HANDLERS[operators.Difference]
        }
        assert rejected == NOT_POSITIVE

    def test_children_and_fold_read_the_declared_child_fields(self):
        for cls in NODE_TYPES:
            assert set(cls.child_fields) <= {"child", "left", "right"}
        q = rel("R").join(rel("S")).select(col("A") > lit(0)).q
        sizes = dict.fromkeys(NODE_TYPES, lambda node, *children: 1 + sum(children))
        assert fold(q, sizes, "size") == len(list(operators.walk(q))) == 4


class _Mystery(Query):
    """A node class no walker has heard of."""

    __slots__ = ()


class TestUnknownNodeType:
    """One TypeError, from the fold, naming the walker and the node type."""

    WALKERS = {
        "output_schema": lambda q: output_schema(q, {"R": ("A", "B")}),
        "unparse_query": unparse_query,
        "UEvaluator": lambda q: UEvaluator(_udb()).evaluate(q),
        "worlds.evaluate": lambda q: evaluate_worlds(
            q, PossibleWorldsDB.certain(_relations())
        ),
        "ApproxQueryEvaluator": lambda q: ApproxQueryEvaluator(
            _udb(), eps0=0.1, rounds=1
        ).evaluate(q),
        "explain": lambda q: explain_plan(q, UEvaluator(_udb()), resolve_strategy("auto")),
        "evaluate_with_provenance": lambda q: evaluate_with_provenance(q, _relations()),
        "pushdown": lambda q: push(q, {"R": ("A", "B")}.__getitem__),
    }

    def test_walkers_match_the_tables(self):
        assert set(self.WALKERS) == set(TABLES)

    @pytest.mark.parametrize("walker", WALKERS)
    @pytest.mark.parametrize("nested", [False, True])
    def test_unknown_node_raises_the_fold_type_error(self, walker, nested):
        q = Select(_Mystery(), col("A") > lit(0)) if nested else _Mystery()
        with pytest.raises(TypeError, match=f"{walker}: no handler for query node _Mystery"):
            self.WALKERS[walker](q)


def _one_query_per_operator():
    r, s = rel("R"), rel("S")
    uncertain = r.repair_key(["A"], "B")
    return {
        "BaseRel": r,
        "Literal": literal(["X", "Y"], [[1, 2]]),
        "Select": r.select(col("A") >= lit(1)),
        "Project": r.project(["B", "A"]),
        "Rename": r.rename({"A": "Z"}),
        "Product": r.product(s.rename({"B": "D"})),
        "Join": r.join(s),
        "Union": r.project(["B"]).union(s.project(["B"])),
        "Difference": r.project(["B"]) - s.project(["B"]),
        "RepairKey": uncertain,
        "Conf": uncertain.conf(),
        "ApproxConf": uncertain.approx_conf(0.3, 0.2),
        "Poss": uncertain.poss(),
        "Cert": uncertain.cert(),
        "ApproxSelect": uncertain.approx_select(col("P1") >= lit(0.0), groups=[["A"]]),
        "ApproxSelect/two groups": uncertain.approx_select(
            col("P1") >= col("P2") * lit(0.0), groups=[["A"], ["B"]]
        ),
        "ApproxSelect/nested groups": uncertain.approx_select(
            col("P1") >= lit(0.0), groups=[["A"], ["A", "B"]]
        ),
    }


class TestColumnsAgreeWithOutputSchema:
    """Regression: approximate σ̂ with two non-nested groups emitted
    ``(A, B, P1, P2)`` where ``output_schema`` and the exact σ̂ give
    ``(A, P1, B, P2)``."""

    def test_covers_every_operator(self):
        covered = {label.split("/")[0] for label in _one_query_per_operator()}
        assert covered == {cls.__name__ for cls in NODE_TYPES}

    @pytest.mark.parametrize("label", _one_query_per_operator())
    def test_every_evaluator_emits_the_output_schema(self, label):
        q = _one_query_per_operator()[label].q
        expected = output_schema(q, {"R": ("A", "B"), "S": ("B", "C")})
        for backend in available_backends():
            assert UEvaluator(_udb(), backend=backend).evaluate(q).relation.columns == expected
        approx = ApproxQueryEvaluator(_udb(), eps0=0.1, rounds=4, rng=1).evaluate(q)
        assert approx.relation.columns == approx.phantom.columns == expected
        with repro.connect(_udb(), rng=1) as db:
            assert db.query(q).relation.columns == expected
            report = db.evaluate_with_guarantee(q, delta=0.2, eps0=0.1)
            assert report.relation.columns == expected

    def test_two_group_sigma_hat_interleaves_p_columns(self):
        q = _one_query_per_operator()["ApproxSelect/two groups"].q
        assert output_schema(q, {"R": ("A", "B")}) == ("A", "P1", "B", "P2")
