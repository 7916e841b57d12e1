"""Rendering UA query trees back into the textual language.

``unparse_query`` is the inverse of
:func:`repro.algebra.parser.parse_query`: for every constructible AST it
emits text that parses back to an equal tree (round-trip property-tested
in ``tests/test_algebra_printer.py``).  Useful for logging query plans,
error messages, and persisting sessions.

Parentheses go only where the tree needs them: left-deep chains and
``not`` / unary minus nest bare, ``0 - x`` prints as ``- x``, a
``Fraction`` with a finite decimal expansion as that decimal.  So printed
text nests no deeper (:data:`repro.algebra.parser.MAX_NESTING`) than any
text that parses to the same tree.
"""

from __future__ import annotations

from fractions import Fraction

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


def unparse_expression(expr: Expr) -> str:
    """Render a condition/term in the textual language's expression syntax."""
    return fold(expr, _EXPR_HANDLERS, "unparse_expression")[0]


def _wrap(rendered: tuple[str, int], parent: int) -> str:
    """A folded ``(text, precedence)`` operand, parenthesised if it binds looser."""
    text, precedence = rendered
    return f"({text})" if precedence < parent else text


def _arith_text(node: Arith, left, right):
    # The parser reads "- x" as 0 - x, unless x is a number: "- 5" is -5.
    operand = _wrap(right, _PREC_NEG)
    if node.op == "-" and left == ("0", _PREC_ATOM) and not operand[0].isdigit():
        return f"- {operand}", _PREC_NEG
    precedence = _PREC_ADD if node.op in "+-" else _PREC_MUL
    # Chains parse left-deep, so a right operand of equal precedence keeps
    # its parentheses: a - (b - c), a / (b * c), and a + (b + c) too.
    return f"{_wrap(left, precedence)} {node.op} {_wrap(right, precedence + 1)}", precedence


def _junction_text(word: str, precedence: int):
    # Chains parse left-deep, so a first operand of equal precedence stays bare.
    return lambda node, first, *rest: (
        f" {word} ".join([_wrap(first, precedence), *(_wrap(a, precedence + 1) for a in rest)]),
        precedence,
    )


_EXPR_HANDLERS = {
    Attr: lambda node: (node.name, _PREC_ATOM),
    Const: lambda node: (_scalar(node.value), _PREC_ATOM),
    BoolConst: lambda node: ("true" if node.value else "false", _PREC_ATOM),
    Arith: _arith_text,
    Cmp: lambda node, left, right: (
        f"{_wrap(left, _PREC_CMP + 1)} {node.op} {_wrap(right, _PREC_CMP + 1)}",
        _PREC_CMP,
    ),
    Not: lambda node, arg: (f"not {_wrap(arg, _PREC_NOT)}", _PREC_NOT),
    And: _junction_text("and", _PREC_AND),
    Or: _junction_text("or", _PREC_OR),
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
