"""``db.query`` asks step 0 first: a lifted plan's relation is built on use only.

On a safe plan over tuple-independent relations under ``auto`` the
session answers from the plan and defers the intensional result.  Four
parts: the deferred result equals an eager evaluation on every surface
it shows; no entry point that only needs confidences runs an algebra
operator; ``db.query`` raises exactly where the eager path raises; and
the captured answers serve only under the strategy they were computed
under.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from conftest import ENGINES, on_engine

import repro
from repro.algebra.operators import BaseRel, Conf
from repro.algebra.parser import parse_query
from repro.algebra.tree import fold, lazy
from repro.generators.tpdb import add_tuple_independent
from repro.urel import UDatabase, UEvaluator
from repro.urel.columnar import ColumnarURelation
from repro.urel.urelation import URelation

from test_extensional import methods, plans_for, ti_database, values

OPERATORS = ("natural_join", "product", "project", "select")


@pytest.fixture
def operator_calls(monkeypatch):
    """Counts every scalar and columnar algebra operator call."""
    calls = []
    for cls in (URelation, ColumnarURelation):
        for name in OPERATORS:
            method = getattr(cls, name)

            def spy(self, *args, _method=method, _name=f"{cls.__name__}.{name}", **kwargs):
                calls.append(_name)
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, spy)
    return calls


def lifting_plans(db):
    return [text for text, lifts in plans_for(db) if lifts]


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("engine", ENGINES)
def test_a_deferred_result_equals_the_eager_one(engine, workers, operator_calls):
    db = on_engine(engine, ti_database(6, n_rows=(4, 6)))
    with repro.connect(db, workers=workers) as session:
        for text in lifting_plans(db):
            eager, complete = UEvaluator(db, copy_db=True).eval(parse_query(text))
            del operator_calls[:]
            result = session.query(text)
            shown = (result.rows, result.columns, result.complete, len(result))
            assert operator_calls == [], text  # nothing above needed the relation
            assert shown == (
                eager.possible_tuples().sorted_rows(),
                eager.columns,
                complete,
                len(eager.possible_tuples()),
            ), text
            assert str(result) == str(eager), text
            for row in result.rows:
                assert set(result.provenance(row)) == set(eager.conditions_of(row)), text
            assert result.relation == eager, text


@pytest.mark.parametrize("engine", ENGINES)
def test_no_confidence_entry_point_runs_an_operator(engine, operator_calls):
    db, text = on_engine(engine, ti_database(3, n_rows=(5, 7))), "project[B](join(R, S))"
    with repro.connect(db, workers=2) as session:
        truth = values(session.confidence_all(text))
        assert len(truth) >= 2 and operator_calls == []
        entry_points = {
            "query().confidences()": lambda: values(session.query(text).confidences()),
            "query().confidence(row)": lambda: {
                row: session.query(text).confidence(row).value for row in truth
            },
            "confidence_all": lambda: values(session.confidence_all(text)),
            "db.confidence": lambda: {
                row[:-1]: row[-1] for _c, row in session.confidence(text).relation.rows
            },
            "topk": lambda: {e.row: e.value for e in session.topk(text, len(truth)).entries},
            "conf inside a query": lambda: {
                row[:-1]: row[-1] for _c, row in session.query(f"conf[P]({text})").relation.rows
            },
        }
        for name, ask in entry_points.items():
            session.clear_cache()  # each entry point cold, not off another's memo
            assert ask() == truth, name
            assert operator_calls == [], name


@pytest.mark.parametrize("engine", ENGINES)
def test_explain_evaluates_no_join_under_a_lifted_conf(engine, operator_calls):
    db = on_engine(engine, ti_database(3, n_rows=(5, 7)))
    text = "project[B](select[A < 2](join(R, S)))"
    with repro.connect(db, workers=2) as session:
        plans = [
            session.explain(f"conf[P]({text})"),
            session.explain(text),
            session.explain_topk(text, 1),
        ]
        assert operator_calls == []
        for plan in plans:
            operators = [line for line in plan.text.splitlines() if "scan[" not in line]
            if plan.root.operator in ("conf", "topk"):
                assert "·extensional" in operators.pop(0), plan.text
            assert operators and all(
                line.endswith(("  ·deferred", "  ·pushed")) for line in operators
            ), plan.text
        # an unsafe plan runs its join, and explain shows the engine that does
        unsafe = session.explain("conf[P](project[A](join(R, S, T)))")
        assert "deferred" not in unsafe.text and operator_calls


# --------------------------------------------------------------------------
# The error contract: db.query raises iff the eager path does
# --------------------------------------------------------------------------


def _error_database(zero_joins: bool) -> UDatabase:
    """R(A, B) with a B = 0 row and a string A that joins nothing; S(B, C)
    joins the B = 0 row iff ``zero_joins``."""
    db = UDatabase()
    rows = [((4, 2), Fraction(1, 2)), ((1, 0), Fraction(2, 3)), (("s", 9), Fraction(1, 4))]
    add_tuple_independent(db, "R", ("A", "B"), rows)
    s_rows = [((2, 5), Fraction(1, 3)), ((3, 7), 1)]
    if zero_joins:
        s_rows.append(((0, 8), Fraction(1, 5)))
    add_tuple_independent(db, "S", ("B", "C"), s_rows)
    return db


ERROR_CORPUS = [
    "project[B](select[A / B >= 2](join(R, S)))",  # 1 / 0 raises iff (1, 0) joins
    "project[C](select[A < 3](join(R, S)))",  # 's' < 3 on a row that joins nothing
    "select[A < 3](R)",  # 's' < 3 on a row the selection meets
    "project[B](select[A = 's'](join(R, S)))",  # equality never raises: lifts
    "project[B](join(R, S))",
]


def _raised(ask):
    try:
        ask()
    except Exception as exc:  # the type is the assertion
        return type(exc)
    return None


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("zero_joins", [False, True])
def test_query_raises_iff_the_eager_path_raises(engine, zero_joins):
    db = on_engine(engine, _error_database(zero_joins))
    outcomes = set()
    for text in ERROR_CORPUS:
        eager = _raised(lambda: UEvaluator(db).eval(parse_query(text)))
        with repro.connect(db) as session:
            assert _raised(lambda: session.query(text)) is eager, text
        outcomes.add(eager)
    assert outcomes == {None, TypeError} | ({ZeroDivisionError} if zero_joins else set())


# --------------------------------------------------------------------------
# The captured answers serve their own strategy only
# --------------------------------------------------------------------------


def test_an_earlier_result_samples_after_the_strategy_changes():
    db, text = ti_database(3, n_rows=(5, 7)), "project[B](join(R, S))"
    with repro.connect(db, rng=4, eps=0.3, delta=0.2) as session:
        earlier = session.query(text)
        session.strategy = repro.resolve_strategy("karp-luby", eps=0.3, delta=0.2)
        state = session.rng.getstate()
        reports = earlier.confidences()
        assert methods(reports) == {"karp-luby"}
        assert sum(report.samples for report in reports.values()) > 0
        assert session.rng.getstate() != state
        # a result asked under the new strategy samples the same way
        assert methods(session.query(text).confidences()) == {"karp-luby"}


def test_an_absent_row_is_answered_without_the_relation(operator_calls):
    db, text = ti_database(3, n_rows=(5, 7)), "project[B](join(R, S))"
    with repro.connect(db) as session:
        absent = session.query(text).confidence((99,))
        assert (absent.value, absent.exact) == (0, True) and operator_calls == []


def test_a_lazy_handler_folds_only_the_children_it_asks_for():
    folded = []
    handlers = {
        BaseRel: lambda node: folded.append(node.name) or node.name,
        Conf: lazy(lambda node, child: "answered" if node.p_name == "P" else child()),
    }
    assert fold(Conf(BaseRel("R"), "P"), handlers, "test") == "answered" and folded == []
    assert fold(Conf(BaseRel("R"), "Q"), handlers, "test") == "R" and folded == ["R"]
