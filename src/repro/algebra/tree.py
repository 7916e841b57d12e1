"""The one traversal of both ASTs: operator trees and expression trees.

A node class declares its shape in ``child_fields`` — the names of the
fields that hold sub-nodes, in evaluation order; a field holding a
*tuple* (``And.args``) contributes its elements.  :func:`children`,
:func:`walk`, :func:`fold` and :func:`rebuild` read nothing else about a
node, so `repro.algebra.operators` and `repro.algebra.expressions` (which
both sit above this module) share them.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from functools import partial
from itertools import islice
from typing import Any

__all__ = ["children", "walk", "fold", "lazy", "rebuild"]


def children(node) -> tuple:
    """Direct sub-nodes of a node."""
    out: tuple = ()
    for name in node.child_fields:
        value = getattr(node, name)
        out += value if isinstance(value, tuple) else (value,)
    return out


def walk(node):
    """Yield every node of the tree, root first."""
    yield node
    for c in children(node):
        yield from walk(c)


def fold(node, handlers: Mapping[type, Callable[..., Any]], walker: str, *context) -> Any:
    """Post-order fold of a tree: the one dispatch over node types.

    Every interpreter of an AST is a table ``handlers`` from node type
    to ``handler(*context, node, *results)``, where ``results`` are the
    already-folded children of ``node``, computed depth-first, left to
    right.  Handlers never recurse.  A node type missing from the table
    raises ``TypeError`` naming ``walker``, before any of the node's
    children is folded.  A handler marked :func:`lazy` receives, in place
    of each result, a thunk that folds that child when called.
    """
    handler = handlers.get(type(node))
    if handler is None:
        kind = getattr(node, "kind", "tree")
        raise TypeError(f"{walker}: no handler for {kind} node {type(node).__name__}")
    if getattr(handler, "lazy", False):
        results = [partial(fold, child, handlers, walker, *context) for child in children(node)]
    else:
        results = [fold(child, handlers, walker, *context) for child in children(node)]
    return handler(*context, node, *results)


def lazy(handler: Callable[..., Any]) -> Callable[..., Any]:
    """Mark a :func:`fold` handler to get a thunk per child: it folds what it asks for."""
    handler.lazy = True
    return handler


def rebuild(node, *new_children):
    """``node`` over ``new_children`` (``node`` itself when they are its own).

    Has a fold handler's signature, so ``dict.fromkeys(NODE_TYPES,
    rebuild)`` is the identity rewrite and a rewrite pass is that table
    with the entries it cares about replaced.
    """
    if all(new is old for new, old in zip(new_children, children(node))):
        return node
    # Field-by-field copy: node classes are frozen dataclasses whose custom
    # ``__init__``s normalise arguments that are already normal here.
    clone = object.__new__(type(node))
    for name in node.__dataclass_fields__:
        object.__setattr__(clone, name, getattr(node, name))
    rest = iter(new_children)
    for name in node.child_fields:
        old = getattr(node, name)
        new = tuple(islice(rest, len(old))) if isinstance(old, tuple) else next(rest)
        object.__setattr__(clone, name, new)
    return clone
