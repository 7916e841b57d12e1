"""Arithmetic and Boolean expressions over tuple attributes.

The paper allows "selection conditions that are Boolean combinations of
atomic conditions (i.e., negation is permitted even in positive UA) and
arithmetic expressions in atomic conditions and in the arguments of
``pi`` and ``rho``" (Section 2).  This module is that expression
language:

* arithmetic terms built from attributes, constants and ``+ - * /``,
* comparison atoms ``< <= = != >= >``,
* Boolean combinations ``And / Or / Not``.

Expressions support operator overloading so queries read naturally::

    from repro.algebra.expressions import col, lit
    pred = (col("P1") / col("P2")) <= lit(0.5)

The same AST doubles as the predicate language of Section 5: there the
attributes are the approximable values ``p1..pk`` and `repro.core`
analyses the AST symbolically (linear-form extraction, read-once checks,
NNF normalization).

Every node class declares its ``child_fields`` and is listed in
:data:`NODE_TYPES`; every analysis of an expression — here and in
`repro.core`, the printer and the columnar lowering — is a handler table
over `repro.algebra.tree.fold`, so a class missing from a table is one
``TypeError``, never a silently skipped subtree.  The exception is
``evaluate``, which stays a method on each node: it is the scalar
algebra's per-row inner loop.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Union

from repro.algebra.tree import fold, rebuild

__all__ = [
    "Expr",
    "Term",
    "Attr",
    "Const",
    "Arith",
    "BoolExpr",
    "Cmp",
    "And",
    "Or",
    "Not",
    "BoolConst",
    "col",
    "lit",
    "as_term",
    "NODE_TYPES",
    "CMP_FUNCS",
    "ARITH_FUNCS",
    "attribute_occurrences",
    "attributes",
    "map_attributes",
    "rename_attributes",
    "substitute_constants",
    "to_nnf",
    "negate_cmp",
    "TRUE",
    "FALSE",
]

Value = Union[int, float, Fraction, str]
Row = Mapping[str, Value]

CMP_FUNCS: dict[str, Callable[[Value, Value], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}

_CMP_NEGATION = {"<": ">=", "<=": ">", "=": "!=", "!=": "=", ">=": "<", ">": "<="}

ARITH_FUNCS: dict[str, Callable[[Value, Value], Value]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


class Expr:
    """Base class of all expression nodes (terms and Boolean formulas).

    ``child_fields`` names the fields holding sub-expressions, as on
    `repro.algebra.operators.Query`.
    """

    __slots__ = ()
    kind: ClassVar[str] = "expression"
    child_fields: ClassVar[tuple[str, ...]] = ()

    def evaluate(self, row: Row) -> Value:
        raise NotImplementedError


class Term(Expr):
    """Numeric/string-valued expression node."""

    __slots__ = ()

    # -- arithmetic sugar ------------------------------------------------
    def __add__(self, other: object) -> "Arith":
        return Arith("+", self, as_term(other))

    def __radd__(self, other: object) -> "Arith":
        return Arith("+", as_term(other), self)

    def __sub__(self, other: object) -> "Arith":
        return Arith("-", self, as_term(other))

    def __rsub__(self, other: object) -> "Arith":
        return Arith("-", as_term(other), self)

    def __mul__(self, other: object) -> "Arith":
        return Arith("*", self, as_term(other))

    def __rmul__(self, other: object) -> "Arith":
        return Arith("*", as_term(other), self)

    def __truediv__(self, other: object) -> "Arith":
        return Arith("/", self, as_term(other))

    def __rtruediv__(self, other: object) -> "Arith":
        return Arith("/", as_term(other), self)

    def __neg__(self) -> "Arith":
        return Arith("-", Const(0), self)

    # -- comparison sugar ------------------------------------------------
    # NB: __eq__/__ne__ stay identity-based so AST nodes remain hashable;
    # use .eq()/.ne() to build equality atoms.
    def __lt__(self, other: object) -> "Cmp":
        return Cmp("<", self, as_term(other))

    def __le__(self, other: object) -> "Cmp":
        return Cmp("<=", self, as_term(other))

    def __gt__(self, other: object) -> "Cmp":
        return Cmp(">", self, as_term(other))

    def __ge__(self, other: object) -> "Cmp":
        return Cmp(">=", self, as_term(other))

    def eq(self, other: object) -> "Cmp":
        return Cmp("=", self, as_term(other))

    def ne(self, other: object) -> "Cmp":
        return Cmp("!=", self, as_term(other))


@dataclass(frozen=True, slots=True)
class Attr(Term):
    """Reference to a tuple attribute by name."""

    name: str

    def evaluate(self, row: Row) -> Value:
        try:
            return row[self.name]
        except KeyError as exc:
            raise KeyError(f"attribute {self.name!r} missing from row {dict(row)!r}") from exc

    def __repr__(self) -> str:
        return f"col({self.name!r})"


@dataclass(frozen=True, slots=True)
class Const(Term):
    """Literal constant."""

    value: Value

    def evaluate(self, row: Row) -> Value:
        return self.value

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


@dataclass(frozen=True, slots=True)
class Arith(Term):
    """Binary arithmetic: ``+ - * /``."""

    op: str
    left: Term
    right: Term
    child_fields = ("left", "right")

    def __post_init__(self) -> None:
        if self.op not in ARITH_FUNCS:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, row: Row) -> Value:
        return ARITH_FUNCS[self.op](self.left.evaluate(row), self.right.evaluate(row))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class BoolExpr(Expr):
    """Boolean-valued expression node."""

    __slots__ = ()

    def __and__(self, other: "BoolExpr") -> "And":
        return And((self, other))

    def __or__(self, other: "BoolExpr") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)

    def evaluate(self, row: Row) -> bool:  # narrowed return type
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class Cmp(BoolExpr):
    """Atomic comparison between two terms."""

    op: str
    left: Term
    right: Term
    child_fields = ("left", "right")

    def __post_init__(self) -> None:
        if self.op not in CMP_FUNCS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, row: Row) -> bool:
        return CMP_FUNCS[self.op](self.left.evaluate(row), self.right.evaluate(row))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True, slots=True)
class And(BoolExpr):
    """Conjunction of one or more Boolean expressions."""

    args: tuple[BoolExpr, ...]
    child_fields = ("args",)

    def evaluate(self, row: Row) -> bool:
        return all(a.evaluate(row) for a in self.args)

    def __repr__(self) -> str:
        return "(" + " & ".join(repr(a) for a in self.args) + ")"


@dataclass(frozen=True, slots=True)
class Or(BoolExpr):
    """Disjunction of one or more Boolean expressions."""

    args: tuple[BoolExpr, ...]
    child_fields = ("args",)

    def evaluate(self, row: Row) -> bool:
        return any(a.evaluate(row) for a in self.args)

    def __repr__(self) -> str:
        return "(" + " | ".join(repr(a) for a in self.args) + ")"


@dataclass(frozen=True, slots=True)
class Not(BoolExpr):
    """Negation."""

    arg: BoolExpr
    child_fields = ("arg",)

    def evaluate(self, row: Row) -> bool:
        return not self.arg.evaluate(row)

    def __repr__(self) -> str:
        return f"~{self.arg!r}"


@dataclass(frozen=True, slots=True)
class BoolConst(BoolExpr):
    """Boolean literal (``TRUE`` / ``FALSE``)."""

    value: bool

    def evaluate(self, row: Row) -> bool:
        return self.value

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


def col(name: str) -> Attr:
    """Shorthand attribute reference."""
    return Attr(name)


def lit(value: Value) -> Const:
    """Shorthand constant."""
    return Const(value)


def as_term(value: object) -> Term:
    """Coerce Python scalars to :class:`Const`; pass terms through."""
    if isinstance(value, Term):
        return value
    if isinstance(value, (int, float, Fraction, str)):
        return Const(value)
    raise TypeError(f"cannot use {value!r} as a term")


NODE_TYPES = (Attr, Const, Arith, Cmp, And, Or, Not, BoolConst)
"""Every concrete node class: the keys a complete handler table has."""

_OCCURRENCES = {
    **dict.fromkeys(NODE_TYPES, lambda node, *parts: sum(parts, ())),
    Attr: lambda node: (node.name,),
}


def attribute_occurrences(expr: Expr) -> tuple[str, ...]:
    """The attribute name of every ``Attr`` leaf of ``expr``, left to right."""
    return fold(expr, _OCCURRENCES, "attribute_occurrences")


def attributes(expr: Expr) -> frozenset[str]:
    """The set of attribute names mentioned anywhere in ``expr``."""
    return frozenset(attribute_occurrences(expr))


_REBUILD = dict.fromkeys(NODE_TYPES, rebuild)


def map_attributes(expr: Expr, leaf: Callable[[Attr], Term]) -> Expr:
    """``expr`` with every attribute reference ``a`` replaced by ``leaf(a)``."""
    return fold(expr, {**_REBUILD, Attr: leaf}, "map_attributes")


def rename_attributes(expr: Expr, mapping: Mapping[str, str]) -> Expr:
    """Rewrite attribute references according to ``mapping`` (missing keys kept)."""
    return map_attributes(expr, lambda a: Attr(mapping.get(a.name, a.name)))


def substitute_constants(expr: Expr, values: Mapping[str, Value]) -> Expr:
    """Replace attribute references found in ``values`` by constants."""
    return map_attributes(expr, lambda a: Const(values[a.name]) if a.name in values else a)


def negate_cmp(atom: Cmp) -> Cmp:
    """The complementary comparison (``not (a < b)`` is ``a >= b``)."""
    return Cmp(_CMP_NEGATION[atom.op], atom.left, atom.right)


def _nnf_junction(same: type, dual: type) -> Callable[..., tuple[BoolExpr, BoolExpr]]:
    return lambda node, *args: (same(tuple(p for p, _ in args)), dual(tuple(n for _, n in args)))


# Bottom-up De Morgan: each Boolean node folds to the pair (its NNF, the
# NNF of its negation), so a ``Not`` just swaps its child's pair.
_NNF = {
    **dict.fromkeys((Attr, Const, Arith), lambda node, *operands: None),
    BoolConst: lambda node: (node, BoolConst(not node.value)),
    Cmp: lambda node, left, right: (node, negate_cmp(node)),
    Not: lambda node, arg: arg[::-1],
    And: _nnf_junction(And, Or),
    Or: _nnf_junction(Or, And),
}


def to_nnf(expr: BoolExpr) -> BoolExpr:
    """Negation normal form.

    Pushes ``Not`` down through ``And``/``Or`` by De Morgan and into
    comparison atoms by flipping the operator, exactly the preprocessing
    step Section 5 of the paper prescribes before combining epsilons
    with min/max.
    """
    return fold(expr, _NNF, "to_nnf")[0]
