"""The conf seam: lineage → confidences → confidence_relation, spelled once.

Every confidence-closing operator and facade method must weigh its
disjunctions through the evaluator's strategy object — a strategy that
counts what it is asked sees them all — and build them in one place:
a new per-relation ``Dnf.for_tuple`` comprehension, or a resurrected
second spelling of ``conf``, fails here, in tier-1.
"""

from __future__ import annotations

import ast
import pathlib
import re
from fractions import Fraction

import pytest

import repro
from repro.algebra.builder import rel
from repro.algebra.expressions import col, lit
from repro.confidence import ExactEnumeration, is_exact_solver
from repro.urel.conditions import Condition
from repro.urel.evaluate import UEvaluator
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable

SRC = pathlib.Path(repro.__file__).parent


class _Counting(ExactEnumeration):
    """An exact solver that keeps its ``name`` and records every DNF it weighs."""

    def __init__(self):
        self.seen: list[frozenset] = []

    def compute(self, dnf, rng, executor=None):
        self.seen.append(frozenset(dnf.members))
        return super().compute(dnf, rng, executor=executor)


N_TUPLES = 6


def _udb() -> UDatabase:
    """Six tuples — short of the 16 where a DNF list shards into worker
    processes — over five lineages: (0, 0) and (4, 0) share theirs."""
    w = VariableTable()
    for i in range(4):
        w.add(("x", i), {0: Fraction(1, 3), 1: Fraction(2, 3)})
    rows = [(Condition({("x", 0): 1}), (9, 1))]
    for a in range(N_TUPLES - 1):
        rows.append((Condition({("x", a % 4): 1}), (a, a % 2)))
        rows.append((Condition({("x", (a + 1) % 4): 0, ("x", (a + 2) % 4): 1}), (a, a % 2)))
    db = UDatabase(w=w)
    db.set_relation("R", URelation.from_rows(("A", "B"), rows))
    return db


def _lineage(relation: URelation) -> set[frozenset]:
    return {frozenset(relation.conditions_of(row)) for row in relation.possible_tuples().rows}


R = _udb().relation("R")
SIGMA = rel("R").approx_select(col("P1") >= lit(0.5), groups=[["B"]])

OPERATORS = {
    "conf": (rel("R").conf(), _lineage(R)),
    "cert": (rel("R").cert(), _lineage(R)),
    "ideal σ̂": (SIGMA, _lineage(R.project(["B"]))),
}

SESSION_CALLS = {
    "db.confidence": lambda db: db.confidence("R"),
    "confidence_all": lambda db: db.confidence_all("R"),
    "result.confidences()": lambda db: db.query("R").confidences(),
    "result.confidence(row)": lambda db: [db.query("R").confidence(row) for row in db.query("R")],
    "topk": lambda db: db.topk("R", 2),
}


class TestEveryConfidenceGoesThroughTheStrategy:
    @pytest.mark.parametrize("operator", OPERATORS)
    def test_plain_evaluator_operators(self, operator):
        q, expected = OPERATORS[operator]
        counting = _Counting()
        UEvaluator(_udb(), counting).evaluate(q.q)
        assert set(counting.seen) == expected

    @pytest.mark.parametrize("operator", OPERATORS)
    def test_session_operators(self, operator):
        q, expected = OPERATORS[operator]
        counting = _Counting()
        with repro.connect(_udb(), strategy=counting) as db:
            db.query(q)
            assert set(counting.seen) == expected
            # ... once each: equal lineage is weighed once, repeats hit the memo.
            db.query(q.project(list(db.query(q).columns)))
            assert len(counting.seen) == len(expected)

    @pytest.mark.parametrize("call", SESSION_CALLS)
    def test_session_methods(self, call):
        counting = _Counting()
        with repro.connect(_udb(), strategy=counting) as db:
            SESSION_CALLS[call](db)
        # Each lineage once: equal lineage is weighed once per session.
        assert len(counting.seen) == len(_lineage(R)) and set(counting.seen) == _lineage(R)

    def test_the_session_evaluator_reads_the_current_strategy(self):
        first, second = _Counting(), _Counting()
        with repro.connect(_udb(), strategy=first) as db:
            db.strategy = second
            db.query("cert(R)")
        assert not first.seen and set(second.seen) == _lineage(R)

    def test_exactness_is_asked_of_the_name(self):
        """Delegating wrappers copy ``name``; they subclass no solver."""

        class Wrapper(repro.ConfidenceStrategy):
            name = ExactEnumeration.name

        assert is_exact_solver(Wrapper()) and is_exact_solver(_Counting())
        assert not is_exact_solver(repro.engine.resolve_strategy("auto"))


class TestExplainAnnotatesWhatRuns:
    @pytest.mark.parametrize("strategy", ["karp-luby", "naive-mc"])
    def test_cert_is_exact_on_a_sampling_session(self, strategy):
        """Regression: the plan said ``cert ← strategy=karp-luby: karp-luby ×n``
        while the query ran exact decomposition and drew no trial."""
        with repro.connect(_udb(), strategy=strategy, rng=5) as db:
            plan = db.explain("cert(R)")
            assert plan.root.strategy == "exact-decomposition"
            assert plan.root.methods == {"exact-decomposition": N_TUPLES}
            assert plan.chosen_methods() == {"exact-decomposition"}
            before = db.rng.getstate()
            db.query("cert(R)")
            assert db.rng.getstate() == before

    def test_cert_names_an_exact_session_solver(self):
        with repro.connect(_udb(), strategy="exact-enumeration") as db:
            assert db.explain("cert(R)").root.methods == {"exact-enumeration": N_TUPLES}


def _uses(path: pathlib.Path, attr: str):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr == attr:
            yield node


class TestOneSpelling:
    def test_dnfs_of_a_relation_are_built_in_one_place(self):
        """``Dnf.for_tuple`` has no caller under ``src/`` outside
        ``confidence/dnf.py`` (``lineage``)."""
        census = {
            path.relative_to(SRC).as_posix(): len(list(_uses(path, "for_tuple")))
            for path in sorted(SRC.rglob("*.py"))
        }
        assert {name: n for name, n in census.items() if n} == {"confidence/dnf.py": 1}

    def test_the_p_column_collision_is_checked_in_one_function(self):
        raisers = [
            path.relative_to(SRC).as_posix()
            for path in sorted(SRC.rglob("*.py"))
            if re.search(r"conf column .* collides with schema", path.read_text())
        ]
        assert raisers == ["urel/translate.py"]

    @pytest.mark.parametrize(
        "name",
        [
            "conf_method",
            "exact_probability",
            "eval_conf",
            "conf_log",
            "exact_confidence_relation",
            "approx_confidence_relation",
            "_confidence_relation",
        ],
    )
    def test_retired_names_stay_retired(self, name):
        holders = [
            path.relative_to(SRC).as_posix()
            for path in sorted(SRC.rglob("*.py"))
            if re.search(rf"(?<![A-Za-z]){name}\b", path.read_text())
        ]
        assert holders == []

    def test_translate_needs_nothing_lazily(self):
        tree = ast.parse((SRC / "urel" / "translate.py").read_text())
        local_imports = [
            node
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert local_imports == []
