"""DET005 — cache tokens must cover every determinism-relevant parameter.

``MemoCache`` keys include each strategy's ``cache_token`` and the
executor's ``plan_token``; any constructor parameter that changes
results but is missing from the token silently serves stale entries
computed under different settings.  That bug class survives every
functional test (the answers are *individually* right) and only shows up
as cross-configuration disagreement.

For every class that defines a token function (any ``def`` named in the
rule's ``token-names`` option) — or that defines ``__init__`` and
inherits a token from a base class in the same module — each
constructor parameter must be referenced in the governing token body as
``self.<p>``, ``self._<p>``, or bare ``<p>``.

Parameters that genuinely must NOT appear (``workers`` — worker count
never affects results, that's the determinism contract; the uniform
``eps``/``delta`` signature that exact strategies accept and ignore) are exempted in the rule's ``exempt`` manifest, keeping the
"this parameter doesn't affect results" claims in one auditable place
rather than scattered through suppression comments.
"""

from __future__ import annotations

import ast

from tools.detlint.framework import Rule, register_rule

_DEFAULT_TOKEN_NAMES = ["cache_token", "plan_token"]


def _functions(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    out: dict[str, ast.FunctionDef] = {}
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.setdefault(stmt.name, stmt)
    return out


def _referenced(token_fn: ast.FunctionDef) -> set[str]:
    """Names a token body mentions: ``self.X`` attrs and bare names."""
    names: set[str] = set()
    for node in ast.walk(token_fn):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


@register_rule
class CacheTokenCompleteness(Rule):
    """Flag constructor parameters missing from the class's cache token."""

    rule_id = "DET005"
    severity = "error"
    description = "cache token omits a constructor parameter"

    def visit_Module(self, module: ast.Module) -> None:
        token_names = set(self.options.get("token-names", _DEFAULT_TOKEN_NAMES))
        exempt = self.options.get("exempt", {})
        classes = {
            stmt.name: stmt for stmt in module.body if isinstance(stmt, ast.ClassDef)
        }
        for cls in classes.values():
            governing = self._governing_token(cls, classes, token_names)
            if governing is None:
                continue
            token_fn, inherited_from = governing
            init = self._find_init(cls, classes)
            if init is None:
                continue
            params = self._params(init)
            allowed = exempt.get(cls.name, [])
            allowed = set(allowed) if isinstance(allowed, list) else set()
            mentioned = _referenced(token_fn)
            for param in params:
                if param in allowed:
                    continue
                bare = param.lstrip("_")
                if {param, "_" + bare, bare} & mentioned:
                    continue
                anchor = cls if inherited_from else token_fn
                where = (
                    f"the {token_fn.name} inherited from {inherited_from}"
                    if inherited_from else f"{token_fn.name}"
                )
                self.report(anchor, (
                    f"{cls.name}.__init__ takes {param!r} but {where} never "
                    f"references it; if {param!r} affects results, add it to the "
                    "token — if it provably cannot, record it in the DET005 "
                    "exempt manifest in detlint.toml"
                ))

    # ------------------------------------------------------------- lookups
    def _governing_token(self, cls, classes, token_names):
        """(token_fn, inherited_from_name|None) for ``cls``, else None."""
        own = _functions(cls)
        for name in token_names:
            if name in own:
                return own[name], None
        if "__init__" not in own:
            return None  # nothing new to cover
        for base in self._base_chain(cls, classes):
            fns = _functions(base)
            for name in token_names:
                if name in fns:
                    return fns[name], base.name
        return None

    def _find_init(self, cls, classes):
        for candidate in [cls, *self._base_chain(cls, classes)]:
            init = _functions(candidate).get("__init__")
            if init is not None:
                return init
        return None

    @staticmethod
    def _base_chain(cls, classes):
        """Base classes resolvable within this module, nearest first."""
        chain, queue, seen = [], list(cls.bases), {cls.name}
        while queue:
            base = queue.pop(0)
            name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else None
            )
            if name is None or name in seen or name not in classes:
                continue
            seen.add(name)
            node = classes[name]
            chain.append(node)
            queue.extend(node.bases)
        return chain

    @staticmethod
    def _params(init: ast.FunctionDef) -> list[str]:
        args = init.args
        params = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]]
        return [p for p in params if p != "self"]
