"""Rendering UA query trees back into the textual language.

``unparse_query`` is the inverse of
:func:`repro.algebra.parser.parse_query`: for every constructible AST it
emits text that parses back to an equal tree (round-trip property-tested
in ``tests/test_algebra_printer.py``).  Useful for logging query plans,
error messages, and persisting sessions.

Parentheses go only where the tree needs them: left-deep chains and
``not`` / unary minus nest bare, a ``Fraction`` with a finite decimal
expansion prints as that decimal.  ``0 - x`` prints as ``- x`` or as
``0 - x``, whichever nests less where it stands, so printed text nests no
deeper (:data:`repro.algebra.parser.MAX_NESTING`) than any text that
parses to the same tree.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

from repro.algebra.expressions import (
    And,
    Arith,
    Attr,
    BoolConst,
    Cmp,
    Const,
    Expr,
    Not,
    Or,
)
from repro.algebra.operators import (
    ApproxConf,
    ApproxSelect,
    BaseRel,
    Cert,
    Conf,
    Difference,
    Join,
    Literal,
    Poss,
    Product,
    Project,
    Query,
    Rename,
    RepairKey,
    Select,
    Union,
    fold,
)

__all__ = ["unparse_query", "unparse_expression", "unparse_session"]

# Operator precedence for expression printing (higher binds tighter).
_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3
_PREC_CMP = 4
_PREC_ADD = 5
_PREC_MUL = 6
_PREC_NEG = 7
_PREC_ATOM = 8


class _Text(NamedTuple):
    """One way to print a subtree, and how many levels it nests (see ``MAX_NESTING``)."""

    text: str
    precedence: int
    depth: int


_DEPTH = attrgetter("depth")


def unparse_expression(expr: Expr) -> str:
    """Render a condition/term in the textual language's expression syntax."""
    return min(fold(expr, _EXPR_HANDLERS, "unparse_expression"), key=_DEPTH).text


def _parenthesised(rendered: _Text) -> _Text:
    return _Text(f"({rendered.text})", _PREC_ATOM, rendered.depth + 1)


def _operand(renderings: list[_Text], parent: int) -> _Text:
    """The shallowest operand text, parenthesised if it binds looser than ``parent``."""
    placed = [r if r.precedence >= parent else _parenthesised(r) for r in renderings]
    return placed[0] if len(placed) == 1 else min(placed, key=_DEPTH)


def _chain(word: str, precedence: int, first: list[_Text], rest) -> list[_Text]:
    """``first word r1 word r2 …``, parsed left-deep: one node per link.

    A first operand of equal precedence stays bare, a later one keeps its
    parentheses: a - (b - c), a / (b * c), and a + (b + c) too.  Of ``n``
    links the first two operands sit ``n`` levels down, operand ``i``
    ``n - i + 1``.
    """
    head = _operand(first, precedence)
    tails = [_operand(r, precedence + 1) for r in rest]
    depth = len(tails) + max(head.depth, *(t.depth - i for i, t in enumerate(tails)))
    text = f" {word} ".join([head.text, *(t.text for t in tails)])
    return [_Text(text, precedence, depth)]


def _arith_text(node: Arith, left: list[_Text], right: list[_Text]) -> list[_Text]:
    precedence = _PREC_ADD if node.op in "+-" else _PREC_MUL
    renderings = _chain(node.op, precedence, left, [right])
    if node.op == "-" and left == [_ZERO]:
        # The parser reads "- x" as 0 - x, unless x is a number: "- 5" is
        # -5, so 5 goes in parentheses (0 needs none: "- -0" is 0 - 0).
        # "- x" binds tighter; "0 - x" is kept where it nests less
        # (0 - 1, 0 - A * B) and the context lets it.
        operand = _operand(right, _PREC_NEG)
        if operand.text[0].isdigit():
            zero = Fraction(operand.text) == 0
            operand = operand._replace(text=f"-{operand.text}") if zero else _parenthesised(operand)
        negation = _Text(f"- {operand.text}", _PREC_NEG, operand.depth + 1)
        return [negation, *(r for r in renderings if r.depth < negation.depth)]
    return renderings


def _cmp_text(node: Cmp, left: list[_Text], right: list[_Text]) -> list[_Text]:
    lhs, rhs = _operand(left, _PREC_CMP + 1), _operand(right, _PREC_CMP + 1)
    return [_Text(f"{lhs.text} {node.op} {rhs.text}", _PREC_CMP, max(lhs.depth, rhs.depth))]


def _not_text(node: Not, arg: list[_Text]) -> list[_Text]:
    operand = _operand(arg, _PREC_NOT)
    return [_Text(f"not {operand.text}", _PREC_NOT, operand.depth + 1)]


def _atom(text: str) -> list[_Text]:
    # A fraction with no finite decimal prints as "(n / d)": two levels.
    return [_Text(text, _PREC_ATOM, 2 if text.startswith("(") else 0)]


_ZERO = _Text("0", _PREC_ATOM, 0)

_EXPR_HANDLERS = {
    Attr: lambda node: _atom(node.name),
    Const: lambda node: _atom(_scalar(node.value)),
    BoolConst: lambda node: _atom("true" if node.value else "false"),
    Arith: _arith_text,
    Cmp: _cmp_text,
    Not: _not_text,
    And: lambda node, first, *rest: _chain("and", _PREC_AND, first, rest),
    Or: lambda node, first, *rest: _chain("or", _PREC_OR, first, rest),
}


def _scalar(value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean scalars are not part of the surface syntax")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        # decimals parse back to exact Fractions; emit a division otherwise
        places = next(
            (k for k in range(value.denominator.bit_length()) if 10**k % value.denominator == 0),
            None,
        )
        if places is None:
            return f"({value.numerator} / {value.denominator})"
        digits = str(abs(value.numerator) * 10**places // value.denominator)
        digits = digits.rjust(places + 1, "0")
        return f"{'-' if value < 0 else ''}{digits[:-places]}.{digits[-places:]}"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    raise TypeError(f"cannot unparse scalar {value!r}")


def unparse_query(query: Query) -> str:
    """Render a query tree in the textual language."""
    return fold(query, _QUERY_HANDLERS, "unparse_query")


def _literal_text(node: Literal) -> str:
    columns = ", ".join(node.relation.columns)
    rows = ", ".join(
        "(" + ", ".join(_scalar(v) for v in row) + ")" for row in node.relation.sorted_rows()
    )
    return f"literal[{columns}]{{{rows}}}"


def _project_text(node: Project, child: str) -> str:
    items = []
    for expr, name in node.items:
        if isinstance(expr, Attr) and expr.name == name:
            items.append(name)
        else:
            items.append(f"{unparse_expression(expr)} -> {name}")
    return f"project[{', '.join(items)}]({child})"


def _rename_text(node: Rename, child: str) -> str:
    items = ", ".join(f"{old} -> {new}" for old, new in node.mapping)
    return f"rename[{items}]({child})"


def _repair_key_text(node: RepairKey, child: str) -> str:
    key = ", ".join(node.key)
    sep = " " if key else ""
    return f"repair-key[{key}{sep}@ {node.weight}]({child})"


def _approx_select_text(node: ApproxSelect, child: str) -> str:
    groups = ", ".join(
        f"conf({', '.join(group)}) as {p_name}"
        for group, p_name in zip(node.groups, node.p_names)
    )
    return f"aselect[{unparse_expression(node.predicate)} ; {groups}]({child})"


_QUERY_HANDLERS = {
    BaseRel: lambda node: node.name,
    Literal: _literal_text,
    Select: lambda node, child: f"select[{unparse_expression(node.condition)}]({child})",
    Project: _project_text,
    Rename: _rename_text,
    Product: lambda node, left, right: f"product({left}, {right})",
    Join: lambda node, left, right: f"join({left}, {right})",
    Union: lambda node, left, right: f"union({left}, {right})",
    Difference: lambda node, left, right: f"diff({left}, {right})",
    RepairKey: _repair_key_text,
    Conf: lambda node, child: f"conf[{node.p_name}]({child})",
    ApproxConf: lambda node, child: (
        f"aconf[{node.eps!r}, {node.delta!r}, {node.p_name}]({child})"
    ),
    Poss: lambda node, child: f"poss({child})",
    Cert: lambda node, child: f"cert({child})",
    ApproxSelect: _approx_select_text,
}


def unparse_session(assignments: list[tuple[str, Query]]) -> str:
    """Render ``(name, query)`` pairs as a ``Name := query;`` script."""
    return "\n".join(
        f"{name} := {unparse_query(query)};" for name, query in assignments
    )
