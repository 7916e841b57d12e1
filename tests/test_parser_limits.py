"""Hostile query text: the parser rejects it with a ``ParseError`` and nothing else.

The parser is recursive descent, and so is every fold over the tree it
returns.  :data:`repro.algebra.parser.MAX_NESTING` caps how deep text may
nest, so text at the limit parses *and* runs through ``db.query``,
``explain``, the printer and the cache fingerprint, while text one level
past it is a ``ParseError`` — never a ``RecursionError`` from the parser
or from anything downstream.  Operators that refuse their arguments
(duplicate columns, an unnamed projection item, a σ̂ predicate over
unknown columns) raise it too.  A Hypothesis fuzz over
arbitrary text and operator-token soup holds ``parse_query`` and
``parse_session`` to that, and one wire round trip shows a served
session still answering after a too-deep request.
"""

from __future__ import annotations

import asyncio
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.algebra import parser
from repro.algebra.parser import MAX_NESTING, ParseError, parse_query, parse_session
from repro.algebra.printer import unparse_query
from repro.engine.cache import query_fingerprint
from repro.generators.coins import coin_database
from repro.server import Client, QueryError, serve
from repro.urel.conditions import Condition
from repro.urel.udatabase import UDatabase
from repro.urel.urelation import URelation
from repro.urel.variables import VariableTable


def _database() -> UDatabase:
    w = VariableTable()
    w.add("x", {0: Fraction(1, 2), 1: Fraction(1, 2)})
    udb = UDatabase(w=w)
    udb.set_relation(
        "R",
        URelation.from_rows(("A",), [(Condition({"x": 1}), (1,)), (Condition({"x": 0}), (2,))]),
    )
    return udb


def _nesting(text: str) -> int:
    """How many levels ``text`` nests, as :data:`MAX_NESTING` counts them."""
    deepest = 0
    reached = parser._Parser.reached

    def counting(self, level):
        nonlocal deepest
        reached(self, level)
        deepest = max(deepest, level)

    with mock.patch.object(parser._Parser, "reached", counting):
        parse_query(text)
    return deepest


def _nested(opening: str, core: str, closing: str, levels: int) -> str:
    """``core`` inside ``levels - 1`` pairs of ``opening`` … ``closing``."""
    return opening * (levels - 1) + core + closing * (levels - 1)


def _conf_chain(levels: int) -> str:
    """``conf[P0](conf[P1](… R …))``: each conf adds its own column."""
    return "".join(f"conf[P{i}](" for i in range(levels - 1)) + "R" + ")" * (levels - 1)


# Each shape's text nests exactly ``levels`` levels (see MAX_NESTING).
SHAPES = {
    "conf": _conf_chain,
    "project": lambda levels: _nested("project[A](", "R", ")", levels),
    "poss": lambda levels: _nested("poss(", "R", ")", levels),
    "parentheses": lambda levels: "select[" + _nested("(", "A = 1", ")", levels) + "](R)",
    "not": lambda levels: "select[" + "not " * (levels - 1) + "A = 1](R)",
    "unary-minus": lambda levels: "select[" + "- " * (levels - 1) + "A = 1](R)",
    "or-chain": lambda levels: "select[" + " or ".join(["A = 1"] * levels) + "](R)",
    "sum-chain": lambda levels: "select[" + " + ".join(["A"] * levels) + " = 1](R)",
    "union-parts": lambda levels: "union(" + ", ".join(["R"] * levels) + ")",
    # A chain's first operand sits under every link after it, parentheses or not.
    "sum-head": lambda levels: "select[(" + " + ".join(["A"] * (levels - 2)) + ") + A = 1](R)",
    "union-head": lambda levels: "union(union(" + ", ".join(["R"] * (levels - 2)) + "), R, R)",
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_text_at_the_limit_runs_everywhere(shape):
    text = SHAPES[shape](MAX_NESTING)
    query = parse_query(text)
    printed = unparse_query(query)
    assert query_fingerprint(query)
    with repro.connect(_database()) as db:
        db.query(text).rows
        db.explain(text)
        db.query(query).rows
    assert parse_query(printed) == query
    assert _nesting(printed) <= _nesting(text)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_one_level_past_the_limit_is_a_parse_error(shape):
    with pytest.raises(ParseError, match=f"nests deeper than {MAX_NESTING} levels"):
        parse_query(SHAPES[shape](MAX_NESTING + 1))
    with pytest.raises(ParseError, match="nests deeper"):
        parse_session("Q := " + SHAPES[shape](MAX_NESTING + 1) + ";")


@pytest.mark.parametrize(
    "text",
    [
        "conf(" * 600 + "R" + ")" * 600,
        "project[A](" * 600 + "R" + ")" * 600,
        "select[" + "(" * 300 + "A = 1" + ")" * 300 + "](R)",
        "select[" + "(" * 150 + "A = 1" + ")" * 150 + "](R)",
        "select[" + "not " * 5000 + "A = 1](R)",
        "select[" + "(" * 5000,
    ],
    ids=["conf-600", "project-600", "parentheses-300", "parentheses-150", "not-5000", "open-5000"],
)
def test_deep_text_never_recurses_without_limit(text):
    with pytest.raises(ParseError):
        parse_query(text)


def _grouped_sum(groups: int) -> str:
    """``((A + … + A) + A + … + A) + …``: each group as long as the limit lets it."""
    term = "A"
    for group in range(groups, 0, -1):
        term = "(" + term + ")" + " + A" * (MAX_NESTING - group - 2)
    return f"select[{term} = 1](R)"


def _grouped_union(groups: int) -> str:
    """``union(union(…, R, …, R), R, …, R)``: each part list as long as the limit lets it."""
    query = "R"
    for group in range(groups, 0, -1):
        query = "union(" + query + ", R" * (MAX_NESTING - group - 1) + ")"
    return query


@pytest.mark.parametrize("text", [_grouped_sum(30), _grouped_union(30)], ids=["sum", "union"])
def test_grouped_chains_count_every_link_over_them(text):
    """A thousand-node left-deep tree, however its text groups the chain, is too deep."""
    with pytest.raises(ParseError, match=f"nests deeper than {MAX_NESTING} levels"):
        parse_query(text)


@pytest.mark.parametrize(
    "text",
    [
        "project[A, A](R)",
        "project[1](R)",
        "conf[1](R)",
        "literal[A]{(1, 2)}",
        "literal[A, A]{(1, 2)}",
        "aselect[Q > 1 ; conf(A) as P](R)",
        "aselect[P > 1 ; conf(A) as P, conf(A) as P](R)",
    ],
)
def test_operators_refusing_their_arguments_are_parse_errors(text):
    with pytest.raises(ParseError):
        parse_query(text)


_TOKENS = (
    "select project rename product join union diff repair-key conf aconf poss cert "
    "aselect literal and or not as true false R S A B P "
    "( ) [ ] { } , ; @ * / + - := -> = < <= != 1 0.5 'x'"
).split()


def _soup():
    return st.lists(st.sampled_from(_TOKENS), max_size=40).map(" ".join)


def _only_parse_errors(text: str) -> None:
    for parse in (parse_query, parse_session):
        try:
            parse(text)
        except ParseError:
            pass


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(max_size=60), _soup()))
def test_fuzzed_text_raises_only_parse_errors(text):
    _only_parse_errors(text)


@settings(max_examples=200, deadline=None)
@given(
    opening=st.lists(st.sampled_from(_TOKENS), max_size=8).map(" ".join),
    repeat=st.integers(0, 400),
    body=_soup(),
)
def test_fuzzed_repetitions_raise_only_parse_errors(opening, repeat, body):
    """Token soup repeated hundreds of times: the nesting the limit exists for."""
    _only_parse_errors(opening * repeat + " " + body + ")" * repeat)


_TERMS = st.recursive(
    st.sampled_from(["A", "B", "0", "1", "2.5", "'x'"]),
    lambda term: st.one_of(
        term.map("- {}".format),
        term.map("({})".format),
        st.tuples(term, st.sampled_from("+-*/"), term).map(" ".join),
    ),
    max_leaves=8,
)
_CONDITIONS = st.recursive(
    st.tuples(_TERMS, st.sampled_from(["=", "<"]), _TERMS).map(" ".join),
    lambda condition: st.one_of(
        condition.map("not {}".format),
        condition.map("({})".format),
        st.tuples(condition, st.sampled_from(["and", "or"]), condition).map(" ".join),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(condition=_CONDITIONS)
@example(condition="A = - (1) + - A")
@example(condition="A = (- A + A) + - A")
@example(condition="A = (A + A) + A + A")
@example(condition="A = 0 - A * B")
@example(condition="A = - - - 0")
def test_printed_text_nests_no_deeper_than_its_tree(condition):
    """Whatever text a tree came from, the printer's text for it nests no deeper.

    The tree's depth is that of a text it was parsed from — with
    redundant parentheses, bare ``not`` / minus chains, any grouping the
    precedences allow — so the printer must place no parenthesis the
    grammar does not need.
    """
    text = f"select[{condition}](R)"
    query = parse_query(text)
    printed = unparse_query(query)
    assert parse_query(printed) == query
    assert _nesting(printed) <= _nesting(text)


def test_a_served_session_rejects_deep_text_and_still_answers():
    server = serve(coin_database())

    async def main():
        client = Client(server, tenant="t1")
        session = await client.open_session(seed=1)
        with pytest.raises(QueryError, match="ParseError: query nests deeper"):
            await session.query("conf(" * 2000 + "Coins" + ")" * 2000)
        rows = await session.query("project[CoinType](Coins)")
        await server.aclose()
        return rows

    assert sorted(asyncio.run(main())) == [("2headed",), ("fair",)]
