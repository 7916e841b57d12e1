"""A textual surface syntax for UA queries.

The paper writes queries in algebra notation (MayBMS implements a
SQL-flavored variant); this module provides a compact textual algebra so
sessions can be scripted without touching the Python AST:

.. code-block:: text

    R := project[CoinType](repair-key[@ Count](Coins));
    S := project[CoinType, Toss, Face](
           repair-key[CoinType, Toss @ FProb](
             product(Faces, literal[Toss]{(1), (2)})));
    T := join(R, project[CoinType](select[Toss = 1 and Face = 'H'](S)),
                 project[CoinType](select[Toss = 2 and Face = 'H'](S)));
    U := project[CoinType, P1 / P2 -> P](
           join(conf[P1](T), conf[P2](project[](T))));

Operator reference (all names case-insensitive):

===========================================  =====================================
``Name``                                     base relation
``literal[A, B]{(1, 'x'), (2, 'y')}``        inline constant relation
``select[cond](q)``                          σ_cond
``project[item, …](q)``                      π / arithmetic ρ; item is an
                                             attribute or ``expr -> name``
``rename[A -> B, …](q)``                     attribute renaming ρ
``product(q, r, …)`` / ``join`` / ``union``  ×, ⋈, ∪ (n-ary, left-assoc)
``diff(q, r)``                               − (engines enforce −_c)
``repair-key[A, B @ W](q)``                  repair-key_{A,B@W}
``conf(q)`` / ``conf[P](q)``                 exact confidence
``aconf[eps, delta](q)``                     conf_{ε,δ}; optional third item
                                             names the P column
``poss(q)`` / ``cert(q)``                    possible / certain tuples
``aselect[cond ; conf(A, B) as P1,``         σ̂ with conf groups
``        conf() as P2](q)``
===========================================  =====================================

Conditions/expressions support ``or``, ``and``, ``not``, comparisons
(``= != < <= > >=``), arithmetic (``+ - * /``), parentheses, numbers
(integers, decimals — parsed as exact :class:`~fractions.Fraction`),
single-quoted strings, and attribute names.

``parse_query`` returns one AST; ``parse_session`` parses a
``Name := query;`` script into (name, query) assignments ready for
``repro.connect(db).run_script(...)`` (or per-name ``assign`` calls).
Both raise :class:`ParseError`, and nothing else, on text they reject —
also where an operator refuses its arguments (``project[A, A](R)``) and
where the text nests deeper than :data:`MAX_NESTING` levels.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

from repro.algebra.expressions import (
    And,
    Attr,
    BoolExpr,
    Cmp,
    Const,
    Not,
    Or,
    Term,
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
)
from repro.algebra.relations import Relation

__all__ = ["MAX_NESTING", "ParseError", "parse_query", "parse_session"]

MAX_NESTING = 64
"""How deep query text may nest.  One level each: a sub-query, a
parenthesised expression, ``not``, a unary minus, and every link of an
``and`` / ``or`` / arithmetic chain or of an n-ary ``product`` /
``join`` / ``union`` past its first.  The tree a chain builds is
left-deep, so each link is a node over every operand before it: of
``n`` links, the first two operands sit ``n`` levels down and operand
``i`` sits ``n - i + 1``; ``(a + b) + c`` nests one level deeper than
``a + b + c``, not one less.  Within it the parser's own recursion,
and every fold over the tree it returns (evaluation, ``explain``, the
printer, the cache fingerprint), stay far inside Python's default
recursion limit.  The printer adds no parenthesis the grammar does not
need and writes ``0 - x`` where that nests less than ``- x``, so its
text for a tree nests no deeper than the text it came from and parses
back whenever that did."""


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class ParseError(ValueError):
    """Raised on malformed query text, with position information."""


def _built(build, *args):
    """``build(*args)``, with an operator's refusal of its arguments as a ParseError."""
    try:
        return build(*args)
    except ParseError:
        raise
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc)) from exc


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<assign>:=)
  | (?P<arrow>->)
  | (?P<cmp><=|>=|!=|=|<|>)
  | (?P<name>[A-Za-z_][A-Za-z_0-9-]*)
  | (?P<sym>[()\[\]{},;@*/+-])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select",
    "project",
    "rename",
    "product",
    "join",
    "union",
    "diff",
    "repair-key",
    "conf",
    "aconf",
    "poss",
    "cert",
    "aselect",
    "literal",
    "and",
    "or",
    "not",
    "as",
    "true",
    "false",
}


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self) -> str:
        return f"{self.kind}({self.text!r})"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        kind = match.lastgroup or ""
        value = match.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, pos))
        pos = match.end()
    tokens.append(_Token("eof", "", pos))
    return tokens


class _Chain:
    """The levels of a left-deep chain while the parser reads it.

    The parser only loops over a chain's operands, but each link is a node
    over every operand before it (see :data:`MAX_NESTING`), so an operand's
    levels count once the links after it are read.  Call :meth:`link` after
    each operand, with the next link's text or ``None`` at the end.
    """

    __slots__ = ("parser", "start", "outer", "counted", "links", "lowest")

    def __init__(self, parser: "_Parser", counted: int = 0):
        self.parser = parser
        self.start, self.outer = parser.depth, parser.reach
        self.counted = counted  # links whose node is already a level (an n-ary query's own)
        self.links = 0
        self.lowest = 0  # the operands' reach, less the links that are not over them
        parser.reach = self.start

    def link(self, token: str | None) -> str | None:
        parser, links = self.parser, self.links
        lowest = parser.reach - self.start - (links - 1 if links else 0)
        if lowest > self.lowest:
            self.lowest = lowest
        above = links - self.counted if links > self.counted else 0
        parser.reached(self.start + above + self.lowest)  # the reach is now this level
        if token is None:
            if self.outer > parser.reach:
                parser.reach = self.outer
        else:
            self.links = links + 1
            parser.reach = self.start
        return token


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0  # levels the parser has recursed into
        self.reach = 0  # deepest level the tree reaches, chains counted once read

    # ------------------------------------------------------------- cursor
    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str, text: str | None = None) -> _Token:
        token = self.peek()
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text or kind
            raise ParseError(
                f"expected {wanted!r} at offset {token.pos}, got {token.text!r}"
            )
        return self.advance()

    def at_symbol(self, symbol: str) -> bool:
        token = self.peek()
        return token.kind == "sym" and token.text == symbol

    def eat_symbol(self, symbol: str) -> None:
        token = self.peek()
        if not self.at_symbol(symbol):
            raise ParseError(
                f"expected {symbol!r} at offset {token.pos}, got {token.text!r}"
            )
        self.advance()

    def at_keyword(self, *names: str) -> bool:
        token = self.peek()
        return token.kind == "name" and token.text.lower() in names

    def take_symbol(self, *symbols: str) -> str | None:
        """The next token's text, consumed, if it is one of ``symbols``."""
        token = self.peek()
        return self.advance().text if token.kind == "sym" and token.text in symbols else None

    def take_keyword(self, word: str) -> str | None:
        return self.advance().text if self.at_keyword(word) else None

    def descend(self) -> None:
        """Go one level deeper; past :data:`MAX_NESTING` the text is rejected."""
        self.depth += 1
        self.reached(self.depth)

    def reached(self, level: int) -> None:
        """The tree reaches ``level``; past :data:`MAX_NESTING` the text is rejected."""
        if level > MAX_NESTING:
            raise ParseError(
                f"query nests deeper than {MAX_NESTING} levels at offset {self.peek().pos}"
            )
        if level > self.reach:
            self.reach = level

    # -------------------------------------------------------------- query
    def parse_query(self) -> Query:
        self.descend()
        node = self._query()
        self.depth -= 1
        return node

    def _query(self) -> Query:
        token = self.peek()
        if token.kind != "name":
            raise ParseError(
                f"expected a query at offset {token.pos}, got {token.text!r}"
            )
        word = token.text.lower()
        if word == "select":
            return self._unary_with_items(lambda items, child: self._mk_select(items, child))
        if word == "project":
            return self._unary_with_items(lambda items, child: Project(child, items))
        if word == "rename":
            return self._unary_with_items(
                lambda items, child: Rename(child, self._as_mapping(items))
            )
        if word in ("product", "join", "union", "diff"):
            return self._nary(word)
        if word == "repair-key":
            return self._repair_key()
        if word in ("conf", "aconf"):
            return self._conf(word)
        if word in ("poss", "cert"):
            self.advance()
            self.eat_symbol("(")
            child = self.parse_query()
            self.eat_symbol(")")
            return Poss(child) if word == "poss" else Cert(child)
        if word == "aselect":
            return self._aselect()
        if word == "literal":
            return self._literal()
        if word in _KEYWORDS:
            raise ParseError(
                f"keyword {word!r} cannot start a query at offset {token.pos}"
            )
        self.advance()
        return BaseRel(token.text)

    # ------------------------------------------------------- constructors
    def _mk_select(self, items: list, child: Query) -> Query:
        if len(items) != 1 or not isinstance(items[0], BoolExpr):
            raise ParseError("select[...] takes exactly one condition")
        return Select(child, items[0])

    def _unary_with_items(self, build) -> Query:
        self.advance()  # keyword
        items = self._bracket_items()
        self.eat_symbol("(")
        child = self.parse_query()
        self.eat_symbol(")")
        return _built(build, items, child)

    def _bracket_items(self) -> list:
        """Parse ``[item, ...]`` where item is an expression, possibly with
        ``-> name`` (projection/rename)."""
        self.eat_symbol("[")
        items: list = []
        if not self.at_symbol("]"):
            while True:
                expr = self.parse_condition()
                if self.peek().kind == "arrow":
                    self.advance()
                    name = self.expect("name").text
                    items.append((expr, name))
                else:
                    items.append(expr)
                if self.at_symbol(","):
                    self.advance()
                    continue
                break
        self.eat_symbol("]")
        return items

    @staticmethod
    def _as_mapping(items: list) -> dict[str, str]:
        mapping: dict[str, str] = {}
        for item in items:
            if (
                not isinstance(item, tuple)
                or not isinstance(item[0], Attr)
            ):
                raise ParseError("rename items must be `Old -> New`")
            mapping[item[0].name] = item[1]
        return mapping

    def _nary(self, word: str) -> Query:
        self.advance()
        self.eat_symbol("(")
        chain = _Chain(self, counted=1)  # this query's node is the last link's
        parts = [self.parse_query()]
        while chain.link(self.take_symbol(",")):
            parts.append(self.parse_query())
        self.eat_symbol(")")
        if word == "diff":
            if len(parts) != 2:
                raise ParseError("diff(q, r) takes exactly two queries")
            return Difference(parts[0], parts[1])
        if len(parts) < 2:
            raise ParseError(f"{word}(...) needs at least two queries")
        ctor = {"product": Product, "join": Join, "union": Union}[word]
        node = parts[0]
        for part in parts[1:]:
            node = ctor(node, part)
        return node

    def _repair_key(self) -> Query:
        self.advance()
        self.eat_symbol("[")
        key: list[str] = []
        while self.peek().kind == "name":
            key.append(self.advance().text)
            if self.at_symbol(","):
                self.advance()
        self.eat_symbol("@")
        weight = self.expect("name").text
        self.eat_symbol("]")
        self.eat_symbol("(")
        child = self.parse_query()
        self.eat_symbol(")")
        return RepairKey(child, key, weight)

    def _conf(self, word: str) -> Query:
        self.advance()
        items: list = []
        if self.at_symbol("["):
            items = self._bracket_items()
        self.eat_symbol("(")
        child = self.parse_query()
        self.eat_symbol(")")
        if word == "conf":
            if len(items) > 1:
                raise ParseError("conf takes at most one [P] item")
            if items and not isinstance(items[0], Attr):
                raise ParseError("conf's item must be a column name")
            return Conf(child, items[0].name if items else "P")
        if len(items) not in (2, 3):
            raise ParseError("aconf needs [eps, delta] or [eps, delta, P]")
        eps, delta = (self._numeric(items[0]), self._numeric(items[1]))
        p_name = "P"
        if len(items) == 3:
            if not isinstance(items[2], Attr):
                raise ParseError("aconf's third item must be a column name")
            p_name = items[2].name
        return _built(ApproxConf, child, float(eps), float(delta), p_name)

    @staticmethod
    def _numeric(item) -> Fraction:
        if isinstance(item, Const) and isinstance(item.value, (int, Fraction, float)):
            return Fraction(item.value)
        raise ParseError(f"expected a numeric literal, got {item!r}")

    def _aselect(self) -> Query:
        """``aselect[cond ; conf(A, B) as P1, conf() as P2](q)``."""
        self.advance()
        self.eat_symbol("[")
        predicate = self.parse_condition()
        self.eat_symbol(";")
        groups: list[list[str]] = []
        p_names: list[str] = []
        while True:
            keyword = self.expect("name")
            if keyword.text.lower() != "conf":
                raise ParseError(
                    f"expected conf(...) group at offset {keyword.pos}"
                )
            self.eat_symbol("(")
            attrs: list[str] = []
            while self.peek().kind == "name":
                attrs.append(self.advance().text)
                if self.at_symbol(","):
                    self.advance()
            self.eat_symbol(")")
            as_kw = self.expect("name")
            if as_kw.text.lower() != "as":
                raise ParseError(f"expected 'as' at offset {as_kw.pos}")
            p_names.append(self.expect("name").text)
            groups.append(attrs)
            if self.at_symbol(","):
                self.advance()
                continue
            break
        self.eat_symbol("]")
        self.eat_symbol("(")
        child = self.parse_query()
        self.eat_symbol(")")
        return _built(ApproxSelect, child, predicate, groups, p_names)

    def _literal(self) -> Query:
        self.advance()
        self.eat_symbol("[")
        columns: list[str] = []
        while self.peek().kind == "name":
            columns.append(self.advance().text)
            if self.at_symbol(","):
                self.advance()
        self.eat_symbol("]")
        self.eat_symbol("{")
        rows: list[tuple] = []
        if not self.at_symbol("}"):
            while True:
                self.eat_symbol("(")
                row: list = []
                if not self.at_symbol(")"):
                    while True:
                        row.append(self._scalar())
                        if self.at_symbol(","):
                            self.advance()
                            continue
                        break
                self.eat_symbol(")")
                rows.append(tuple(row))
                if self.at_symbol(","):
                    self.advance()
                    continue
                break
        self.eat_symbol("}")
        return Literal(_built(Relation.from_rows, tuple(columns), rows))

    def _scalar(self):
        token = self.peek()
        if token.kind == "sym" and token.text == "-":
            self.advance()
            number = self.expect("number")
            return -_parse_number(number.text)
        if token.kind == "number":
            self.advance()
            return _parse_number(token.text)
        if token.kind == "string":
            self.advance()
            return _parse_string(token.text)
        raise ParseError(f"expected a literal value at offset {token.pos}")

    # --------------------------------------------------------- expressions
    def parse_condition(self) -> BoolExpr | Term:
        return self._parse_or()

    def _parse_or(self):
        chain = _Chain(self)
        left = self._parse_and()
        while chain.link(self.take_keyword("or")):
            right = self._parse_and()
            left = Or((self._boolish(left), self._boolish(right)))
        return left

    def _parse_and(self):
        chain = _Chain(self)
        left = self._parse_not()
        while chain.link(self.take_keyword("and")):
            right = self._parse_not()
            left = And((self._boolish(left), self._boolish(right)))
        return left

    def _parse_not(self):
        if self.at_keyword("not"):
            self.advance()
            self.descend()
            node = Not(self._boolish(self._parse_not()))
            self.depth -= 1
            return node
        return self._parse_comparison()

    def _parse_comparison(self):
        left = self._parse_additive()
        if self.peek().kind == "cmp":
            op = self.advance().text
            right = self._parse_additive()
            return Cmp(op, self._termish(left), self._termish(right))
        return left

    def _parse_additive(self):
        chain = _Chain(self)
        left = self._parse_multiplicative()
        while op := chain.link(self.take_symbol("+", "-")):
            right = self._parse_multiplicative()
            left = _built(_ARITHMETIC[op], self._termish(left), right)
        return left

    def _parse_multiplicative(self):
        chain = _Chain(self)
        left = self._parse_unary()
        while op := chain.link(self.take_symbol("*", "/")):
            right = self._parse_unary()
            left = _built(_ARITHMETIC[op], self._termish(left), right)
        return left

    def _parse_unary(self):
        if self.at_symbol("-"):
            self.advance()
            # Fold minus into numeric literals (so -1 is the constant −1,
            # not the expression 0 − 1); general terms get the 0 − x form.
            if self.peek().kind == "number":
                return Const(-_parse_number(self.advance().text))
            self.descend()
            node = Const(0) - self._termish(self._parse_unary())
            self.depth -= 1
            return node
        return self._parse_atom()

    def _parse_atom(self):
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return Const(_parse_number(token.text))
        if token.kind == "string":
            self.advance()
            return Const(_parse_string(token.text))
        if self.at_symbol("("):
            self.advance()
            self.descend()
            inner = self.parse_condition()
            self.depth -= 1
            self.eat_symbol(")")
            return inner
        if token.kind == "name":
            word = token.text.lower()
            if word == "true":
                self.advance()
                from repro.algebra.expressions import TRUE

                return TRUE
            if word == "false":
                self.advance()
                from repro.algebra.expressions import FALSE

                return FALSE
            if word in _KEYWORDS:
                raise ParseError(
                    f"keyword {word!r} not allowed in expressions "
                    f"(offset {token.pos})"
                )
            self.advance()
            return Attr(token.text)
        raise ParseError(f"unexpected token {token.text!r} at offset {token.pos}")

    @staticmethod
    def _boolish(node) -> BoolExpr:
        if not isinstance(node, BoolExpr):
            raise ParseError(f"expected a boolean expression, got {node!r}")
        return node

    @staticmethod
    def _termish(node) -> Term:
        if not isinstance(node, Term):
            raise ParseError(f"expected an arithmetic term, got {node!r}")
        return node


def _parse_number(text: str):
    if "." in text:
        return Fraction(text)  # exact decimal
    return int(text)


def _parse_string(text: str) -> str:
    body = text[1:-1]
    return body.replace("\\'", "'").replace("\\\\", "\\")


def parse_query(text: str) -> Query:
    """Parse a single query expression into the UA operator AST."""
    parser = _Parser(text)
    query = parser.parse_query()
    token = parser.peek()
    if token.kind != "eof":
        raise ParseError(
            f"trailing input at offset {token.pos}: {token.text!r}"
        )
    return query


def parse_session(text: str) -> list[tuple[str, Query]]:
    """Parse a ``Name := query;`` script into session assignments.

    The trailing semicolon on the final statement is optional.
    """
    parser = _Parser(text)
    assignments: list[tuple[str, Query]] = []
    while parser.peek().kind != "eof":
        name = parser.expect("name").text
        parser.expect("assign")
        query = parser.parse_query()
        assignments.append((name, query))
        if parser.at_symbol(";"):
            parser.advance()
    return assignments
