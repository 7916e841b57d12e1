"""Selection pushdown: a copy of each conjunct below the merges, same answers.

Three engines must agree on every generated plan: ``UEvaluator`` (which
runs the pushed plan), the fold over the plan as written (what an
evaluator without the pass runs), and the possible-worlds engine.  The
pass itself is pinned by three invariants — ``strip(push(q)) == q``,
``push(push(q)) == push(q)``, and no copy on or under a barrier — and by
its error contract: a copy that raises on its operand is skipped, so a
query raises exactly where it raised without the pass, with the same
exception type and the session stream in the same place.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import ENGINES, on_engine
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis import seed as fixed_seed

import repro
import repro.urel.evaluate as evaluate_module
from repro.algebra import pushdown
from repro.algebra.expressions import And, Arith, Attr, Cmp, Const, Not, Or
from repro.algebra.operators import (
    NODE_TYPES,
    ApproxConf,
    ApproxSelect,
    BaseRel,
    Cert,
    Conf,
    Difference,
    Join,
    Poss,
    Product,
    Project,
    Rename,
    RepairKey,
    Select,
    Union,
    output_schema,
)
from repro.algebra.parser import parse_query
from repro.algebra.printer import unparse_query
from repro.algebra.pushdown import push, strip
from repro.algebra.relations import Relation
from repro.algebra.tree import children, fold, rebuild, walk
from repro.urel import UDatabase, UEvaluator, URelation, enumerate_worlds
from repro.urel.conditions import Condition
from repro.urel.variables import VariableTable
from repro.util.parallel import ShardExecutor
from repro.worlds import evaluate_worlds

SCHEMAS = {
    "R": ("A", "B"),
    "U": ("A", "B"),
    "S": ("B", "C"),
    "T": ("C", "D"),
    "K": ("B", "W"),
}
BARRIERS = (Difference, RepairKey, Conf, ApproxConf, Poss, Cert, ApproxSelect)
FRESH = ("X", "Y", "Z", "V")


def schema_of(name):
    return SCHEMAS[name]


def database(seed: int) -> UDatabase:
    """R, U, S, T uncertain over three coin flips; K complete, for repair-key."""
    rng = random.Random(seed)
    w = VariableTable()
    for i in range(3):
        w.add(("x", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})
    db = UDatabase(w=w)
    for name in ("R", "U", "S", "T"):
        rows = []
        for _ in range(rng.randint(1, 5)):
            variables = rng.sample(range(3), rng.randint(0, 2))
            cond = Condition({("x", i): rng.randint(0, 1) for i in variables})
            rows.append((cond, (rng.randint(0, 2), rng.randint(0, 2))))
        db.set_relation(name, URelation.from_rows(SCHEMAS[name], rows))
    k_rows = [(0, 1), (0, 2), (1, 1), (2, 3)]
    db.set_relation("K", URelation.from_complete(Relation.from_rows(SCHEMAS["K"], k_rows)), True)
    return db


# --------------------------------------------------------------------------
# Plans: selections at random heights, barriers mixed in
# --------------------------------------------------------------------------


@st.composite
def conditions(draw, columns):
    def atom():
        left = Attr(draw(st.sampled_from(columns)))
        shape = draw(st.sampled_from(("const", "attr", "sum")))
        if shape == "attr":
            right = Attr(draw(st.sampled_from(columns)))
        elif shape == "sum":
            left, right = Arith("+", left, Attr(draw(st.sampled_from(columns)))), Const(2)
        else:
            right = Const(draw(st.integers(0, 2)))
        return Cmp(draw(st.sampled_from(("<", "<=", "=", "!=", ">"))), left, right)

    shape = draw(st.sampled_from(("atom", "and", "and", "or", "not")))
    if shape == "atom":
        return atom()
    if shape == "and":
        return And(tuple(atom() for _ in range(draw(st.integers(2, 3)))))
    if shape == "or":
        return Or((atom(), atom()))
    return Not(atom())


_TWIN = {
    **dict.fromkeys(NODE_TYPES, rebuild),
    BaseRel: lambda node: BaseRel("U") if node.name == "R" else node,
    # a repair-key of its own: two occurrences are two independent choices
    RepairKey: lambda node, child: RepairKey(child, node.key, node.weight),
}


def _twin(query):
    """``query`` over U instead of R: same schema, other rows (for union)."""
    return fold(query, _TWIN, "twin")


LEAVES = ("R", "S", "T", "U", "repair-key")
KINDS = (
    ("select", "select", "select", "rename", "project", "conf", "poss", "cert", "aselect")
    + ("join", "join", "product", "union", "difference")
)


@st.composite
def plans(draw, depth=3, sampled=False):
    """A plan over R, U, S, T and ``repair-key[B @ W](K)``, every operator
    mixed in — ``aconf`` only when ``sampled`` (the worlds engine has no
    sampled answer to compare)."""
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        leaf = draw(st.sampled_from(LEAVES))
        if leaf == "repair-key":
            return RepairKey(BaseRel("K"), ("B",), "W")
        return BaseRel(leaf)
    kind = draw(st.sampled_from(KINDS + (("aconf",) if sampled else ())))
    child = draw(plans(depth - 1, sampled))
    columns = output_schema(child, SCHEMAS)
    fresh = [name for name in FRESH if name not in columns]
    if kind == "select" and columns:
        return Select(child, draw(conditions(list(columns))))
    if kind == "rename" and columns and fresh:
        return Rename(child, {draw(st.sampled_from(columns)): fresh[0]})
    if kind == "project" and columns:
        keep = draw(st.lists(st.sampled_from(columns), min_size=1, unique=True))
        items = list(keep)
        if "E" not in keep and draw(st.booleans()):
            items.append((Arith("+", Attr(keep[0]), Const(1)), "E"))
        return Project(child, items)
    if kind == "conf" and "P" not in columns:
        return Conf(child)
    if kind == "aconf" and "P" not in columns:
        return ApproxConf(child, 0.3, 0.2)
    if kind == "poss":
        return Poss(child)
    if kind == "cert":
        return Cert(child)
    if kind == "aselect" and columns and "P1" not in columns:
        return ApproxSelect(child, Cmp(">=", Attr("P1"), Const(Fraction(1, 2))), [[columns[0]]])
    if kind == "union":
        return Union(child, _twin(child))
    if kind == "difference":
        return Difference(Poss(child), Poss(_twin(child)))
    other = draw(plans(depth - 1, sampled))
    other_columns = output_schema(other, SCHEMAS)
    if kind == "product" and not set(columns) & set(other_columns):
        return Product(child, other)
    if columns:
        # A selection over the merge: the shape the pass exists for.
        joined = Join(child, other)
        merged = output_schema(joined, SCHEMAS)
        return Select(joined, draw(conditions(list(merged))))
    return Join(child, other)


# --------------------------------------------------------------------------
# Invariants of the pass
# --------------------------------------------------------------------------


def copies(query):
    return [node for node in walk(query) if type(node) is Select and node.pushed]


def assert_invariants(query):
    pushed = push(query, schema_of)
    assert strip(pushed) == query
    assert push(pushed, schema_of) == pushed
    assert not copies(query)
    for node in walk(pushed):
        if type(node) in BARRIERS:
            # Everything below a barrier is what its own subtree pushes:
            # no copy from above crossed it.
            for child in children(node):
                assert child == push(strip(child), schema_of)
        if type(node) is Select and node.pushed:
            assert type(node.child) not in BARRIERS
    return pushed


class TestInvariants:
    @given(plans(sampled=True))
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_strip_push_idempotent_no_copy_under_a_barrier(self, query):
        assert_invariants(query)

    def test_the_pipeline_shape_gains_one_copy_on_its_scan(self):
        query = parse_query("project[B](select[A < 100](join(R, S)))")
        pushed = assert_invariants(query)
        (copy,) = copies(pushed)
        assert copy.child == BaseRel("R") and copy.condition == query.child.condition
        assert not pushed.child.pushed  # the select as written stays unmarked

    @pytest.mark.parametrize(
        "text, expected",
        [
            # a conjunct over join attributes goes to both sides
            (
                "select[B = 1](join(R, S))",
                "select[B = 1](join(select[B = 1](R), select[B = 1](S)))",
            ),
            # split: each conjunct to the side that covers it; one spanning both stays
            (
                "select[A < 2 and C > 0 and A < C](join(R, S))",
                "select[A < 2 and C > 0 and A < C](join(select[A < 2](R), select[C > 0](S)))",
            ),
            # through a rename, mapped back
            (
                "select[X < 2](join(rename[A -> X](R), S))",
                "select[X < 2](join(rename[A -> X](select[A < 2](R)), S))",
            ),
            # through a plain project, to both union sides
            (
                "select[A < 2](project[A, B](union(R, U)))",
                "select[A < 2](project[A, B](union(select[A < 2](R), select[A < 2](U))))",
            ),
            # a computed item stops the copy at the project, above the merge below it
            (
                "select[E < 2](join(project[A + 1 -> E, B](R), S))",
                "select[E < 2](join(select[E < 2](project[A + 1 -> E, B](R)), S))",
            ),
            # no merge crossed: nothing placed
            ("select[A < 2](project[A](R))", "select[A < 2](project[A](R))"),
            # barriers: never on or under one
            ("select[P > 0](join(conf[P](R), S))", "select[P > 0](join(conf[P](R), S))"),
            (
                "select[W > 1](join(repair-key[B @ W](K), S))",
                "select[W > 1](join(repair-key[B @ W](K), S))",
            ),
            # a selection the operand already enforces is not copied twice
            (
                "select[A < 2](join(select[A < 2](R), S))",
                "select[A < 2](join(select[A < 2](R), S))",
            ),
        ],
    )
    def test_placement(self, text, expected):
        query = parse_query(text)
        pushed = push(query, schema_of)
        assert strip(pushed) == query
        assert unparse_query(pushed) == unparse_query(parse_query(expected))

    def test_an_ill_typed_plan_is_left_to_the_evaluator(self):
        query = parse_query("select[A < 2](join(Missing, S))")
        assert push(query, schema_of) == query
        assert push(parse_query("select[Q < 2](union(R, U))"), schema_of) == parse_query(
            "select[Q < 2](union(R, U))"
        )


# --------------------------------------------------------------------------
# Differential: pushed == as written == possible worlds
# --------------------------------------------------------------------------


def _without_the_pass(monkeypatch):
    """Evaluators from here on run plans as written, as they did before the pass."""
    monkeypatch.setattr(evaluate_module, "push", lambda query, schema_of: query)


def confidences(evaluator, relation):
    rows, dnfs = evaluator.lineage(relation)
    reports = evaluator.confidences(dnfs, evaluator.exact_strategy)
    return dict(zip(rows, (report.value for report in reports)))


def assert_engines_agree(query, seed):
    udb = database(seed)
    truth: dict[tuple, Fraction] = {}
    for relation, p in evaluate_worlds(query, enumerate_worlds(udb)):
        for row in relation.rows:
            truth[row] = truth.get(row, Fraction(0)) + p
    for engine in ENGINES:
        pushed = UEvaluator(on_engine(engine, udb))
        relation = pushed.evaluate(query).relation
        written = UEvaluator(on_engine(engine, udb))
        assert relation == written._materialize(written._eval_rep(query)[0]), engine
        assert confidences(pushed, relation) == truth, engine


def few_worlds(query):
    """At most two repair-keys: each one doubles the worlds the reference unfolds."""
    return sum(type(node) is RepairKey for node in walk(query)) <= 2


class TestDifferential:
    @given(plans().filter(few_worlds), st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_pushed_equals_as_written_equals_worlds(self, query, seed):
        assert_engines_agree(query, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_session_answers_are_the_plans_as_written(self, seed, monkeypatch):
        text = "conf[P](project[B](select[A < 2 and C != 1](join(R, S))))"
        with repro.connect(database(seed), rng=seed) as db:
            pushed = db.query(text).relation
        _without_the_pass(monkeypatch)
        with repro.connect(database(seed), rng=seed) as db:
            assert db.query(text).relation == pushed


@pytest.mark.slow
@pytest.mark.parametrize("block", range(5))
def test_wide_sweep(block):
    """Hundreds of generated plans per block, deeper trees, every barrier."""

    @fixed_seed(block)
    @given(plans(depth=4).filter(few_worlds), st.integers(0, 10_000))
    @settings(
        max_examples=200,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    def sweep(query, data_seed):
        assert_invariants(query)
        assert_engines_agree(query, data_seed)

    sweep()


# --------------------------------------------------------------------------
# The error contract
# --------------------------------------------------------------------------


PREDICATES = {"zero": "A / B > 1", "str": "A < 100"}
ERRORS = {"zero": ZeroDivisionError, "str": TypeError}
BAD_ROWS = {"zero": (5, 0), "str": ("oops", 9)}  # (A, B) the predicate raises on


def error_database(bad: str, joined: bool) -> UDatabase:
    """R(A, B) with one row the ``bad`` predicate raises on; S(B, C) joins
    that row only when ``joined``.  Conditions over six coin flips, so
    answers are sampled from overlapping clauses."""
    rng = random.Random(7)
    w = VariableTable()
    for i in range(6):
        w.add(("x", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})

    def condition(size):
        return Condition({("x", i): rng.randint(0, 1) for i in rng.sample(range(6), size)})

    r_rows = [(condition(2), (10 + i, 1 + i % 3)) for i in range(30)]
    r_rows.append((condition(1), BAD_ROWS[bad]))
    keys = [1, 2, 3] + ([BAD_ROWS[bad][1]] if joined else [])
    s_rows = [(condition(1), (k, 100 * k + j)) for k in keys for j in range(4)]
    db = UDatabase(w=w)
    db.set_relation("R", URelation.from_rows(("A", "B"), r_rows))
    db.set_relation("S", URelation.from_rows(("B", "C"), s_rows))
    return db


def _outcome(run):
    """``run()``'s answer, or the type of what it raised."""
    try:
        return run()
    except (ArithmeticError, TypeError) as exc:
        return type(exc)


def _driver_key(report):
    return (
        sorted(map(repr, report.relation.rows)),
        report.rounds,
        sorted((repr(row), bound) for row, bound in report.tuple_bounds.items()),
    )


ASKS = {
    "conf": lambda db, predicate: sorted(
        map(repr, db.query(f"conf[P](project[C](select[{predicate}](join(R, S))))").relation.rows)
    ),
    "evaluate_with_guarantee": lambda db, predicate: _driver_key(
        db.evaluate_with_guarantee(
            f"aselect[P1 > 0.3 ; conf(C) as P1](project[C](select[{predicate}](join(R, S))))",
            delta=0.3,
            eps0=0.3,
        )
    ),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("bad", sorted(PREDICATES))
@pytest.mark.parametrize("ask", sorted(ASKS))
@pytest.mark.parametrize("joined", [False, True], ids=["dropped-row", "kept-row"])
def test_a_copy_that_raises_changes_nothing(engine, bad, ask, joined, monkeypatch):
    def run():
        with repro.connect(
            on_engine(engine, error_database(bad, joined)),
            strategy="karp-luby",
            eps=0.3,
            delta=0.3,
            rng=5,
        ) as db:
            return _outcome(lambda: ASKS[ask](db, PREDICATES[bad])), db.rng.getstate()

    pushed, pushed_state = run()
    _without_the_pass(monkeypatch)
    written, written_state = run()
    assert pushed == written and pushed_state == written_state
    if joined:
        assert pushed is ERRORS[bad]
    else:
        assert not isinstance(pushed, type) and pushed[0]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("bad", sorted(PREDICATES))
def test_the_copy_itself_is_what_raised(engine, bad):
    """On a dropped row the copy raised and was skipped: the pushed plan has one."""
    evaluator = UEvaluator(on_engine(engine, error_database(bad, joined=False)))
    query = parse_query(f"select[{PREDICATES[bad]}](join(R, S))")
    (copy,) = copies(evaluator._pushed(query))
    with pytest.raises(ERRORS[bad]):
        evaluator._eval_rep(Select(copy.child, copy.condition))
    assert evaluator.evaluate(query).relation == evaluator._materialize(
        evaluator._eval_rep(query)[0]
    )


def test_the_barriers_are_the_operators_nothing_passes():
    barriers = {cls for cls, route in pushdown._ROUTES.items() if route is pushdown._barrier}
    assert barriers == set(BARRIERS)


# --------------------------------------------------------------------------
# explain shows what runs
# --------------------------------------------------------------------------


def pipeline_database(n_rows: int = 400, n_vars: int = 12, seed: int = 1) -> UDatabase:
    """``pipeline_conf``'s shape: R(A, B) ⋈ S(B, C) on round-robin keys,
    conditions of one or two variables over twelve coin flips."""
    rng = random.Random(seed)
    n_keys = max(4, n_rows // 100)
    w = VariableTable()
    for i in range(n_vars):
        w.add(("x", i), {0: Fraction(1, 2), 1: Fraction(1, 2)})

    def relation(columns, key_first):
        rows = []
        for i in range(n_rows):
            key = i % n_keys
            cond = Condition(
                {("x", rng.randrange(n_vars)): rng.randint(0, 1) for _ in range(1 + i % 2)}
            )
            rows.append((cond, (key, i) if key_first else (i, key)))
        return URelation.from_rows(columns, rows)

    db = UDatabase(w=w)
    db.set_relation("R", relation(("A", "B"), False))
    db.set_relation("S", relation(("B", "C"), True))
    return db


PIPELINE = "conf[P](project[B](select[A < 20](join(R, S))))"


def test_explain_gains_one_line_on_the_pipeline_shape(monkeypatch):
    def plan_text():
        with repro.connect(pipeline_database()) as db:
            return str(db.explain(PIPELINE)).splitlines()

    pushed = plan_text()
    _without_the_pass(monkeypatch)
    written = plan_text()
    # One line more, between the join and the scan it filters; the conf
    # node's census is the plan-as-written's.
    copy = "        select[A < 20]  ·pushed"
    assert pushed == written[:5] + [copy, "  " + written[5]] + written[6:]
    assert pushed[3:8] == [
        "    select[A < 20]  ·columnar[numpy]",
        "      join  ·columnar[numpy]",
        "        select[A < 20]  ·pushed",
        "          scan[R]",
        "        scan[S]",
    ]


def test_the_join_is_rated_on_its_filtered_operand():
    executor = ShardExecutor(2, min_shard_pairs=20_000)
    try:
        with repro.connect(pipeline_database(), workers=executor) as db:
            lines = str(db.explain(PIPELINE)).splitlines()
            unfiltered = len(db.relation("R")) * len(db.relation("S"))
    finally:
        executor.close()
    # All 400 × 400 candidate pairs would fan out; the 20 rows the copy
    # keeps of R, merged with S, do not.
    assert len(executor.plan_pairs(unfiltered)) > 1
    assert lines[4:6] == [
        "      join  ·columnar[numpy]·sharded[2]·below-threshold",
        "        select[A < 20]  ·pushed",
    ]
    assert lines[1].startswith("conf[P]  ·sharded[2]")
