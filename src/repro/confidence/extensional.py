"""Extensional confidence: safe plans over tuple-independent relations.

Section 4 weighs a tuple's disjunction F, and Theorem 3.4 makes that
#P-hard in general — but not for the one shape the literature treats as
easy.  When a plan is a *hierarchical* self-join-free conjunctive query
and every relation it reads is tuple-independent, each answer's
confidence is plain arithmetic over a probability column (Dalvi &
Suciu's safe plans; the recipe of "Approximate Lifted Inference with
Probabilistic Databases"): sub-queries that share no existential
attribute are independent events, so their probabilities multiply
(*independent join*), and an existential attribute that occurs in every
atom splits the query into independent events, one per value, so their
absences multiply (*independent project*).  ``project[B](join(R, S))``
becomes (1 − ∏(1 − p_r))·(1 − ∏(1 − p_s)) per key, read straight off R,
S and W.

This is step 0 of the conf seam (``docs/architecture.md``): an
evaluator that has the plan in hand asks :func:`lift` before it builds
any lineage.  Two screens, both cheaper than one DNF:

* the **plan screen** — a handler table over the operator fold turns the
  plan into a conjunctive query (atoms from ``BaseRel``, filters from
  ``Select``, the head from ``Project``, column maps from ``Rename``,
  ``Join``/``Product`` concatenating atoms; every other operator, a
  self-join, an arithmetic projection item or a filter spanning two
  atoms answers "not liftable"), and the Dalvi–Suciu recursion over the
  atoms' *variable sets* compiles it to a safe plan or finds it not
  hierarchical;
* the **data screen** — every relation read must be tuple-independent
  as stored in this database
  (:meth:`repro.urel.urelation.URelation.independent_rows`) and no
  random variable may serve two of them.

:func:`lift` returns ``None`` when either fails and the caller falls
through to the per-DNF path, so the route is chosen from what the code
observes in its input, never from a flag.  A :class:`SafePlan` then
evaluates over ``(values, p)`` rows without constructing a condition
union, a :class:`~repro.confidence.dnf.Dnf`, an enclosure or a trial
(and answers ``None`` itself, for the same fall-through, in the one
case only the data can show: a selection that cannot be evaluated on a
base row the plan's own join would have dropped).
Rows are visited in ``repr`` order and every table is built in visit
order, so the order of each product is a function of the data alone:
float answers are identical at every hash seed, backend and worker
count, and ``Fraction`` answers equal exact enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING

from repro.algebra.expressions import Attr, BoolExpr, attributes
from repro.algebra.operators import (
    NODE_TYPES,
    BaseRel,
    Join,
    Product,
    Project,
    Query,
    Rename,
    Select,
    fold,
)
from repro.worlds.database import Prob

if TYPE_CHECKING:
    from repro.urel.udatabase import UDatabase
    from repro.urel.variables import VariableTable

__all__ = ["EXTENSIONAL", "SafePlan", "lift"]

EXTENSIONAL = "extensional"
"""The ``method`` of a report answered here, and the ``explain`` tag."""

_CERTAIN = Fraction(1)

_Var = tuple[str, str]
"""A query variable: (relation, column) of the atom position that
introduced it — unique because the query is self-join-free."""


# --------------------------------------------------------------------------
# Plan screen, part 1: operator tree -> conjunctive query
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Cq:
    """A self-join-free conjunctive query, as the handlers accumulate it.

    ``atoms`` pairs each relation read with one variable per column,
    ``columns`` maps the output schema to variables, ``filters`` holds
    each selection with the variables its attributes stood for, and
    ``equalities`` the variable pairs natural joins identified —
    resolved once, by :func:`_resolve`.
    """

    atoms: tuple[tuple[str, tuple[_Var, ...]], ...]
    columns: tuple[tuple[str, _Var], ...]
    filters: tuple[tuple[BoolExpr, tuple[tuple[str, _Var], ...]], ...] = ()
    equalities: tuple[tuple[_Var, _Var], ...] = ()


def _not_liftable(db, node, *children):
    return None


def _liftable(handler):
    """``handler``, answering "not liftable" as soon as an operand did."""

    def guarded(db, node, *children):
        return None if None in children else handler(db, node, *children)

    return guarded


def _atom(db, node: BaseRel):
    if node.name not in db:
        return None
    variables = tuple((node.name, column) for column in db.relation(node.name).columns)
    return _Cq(((node.name, variables),), tuple((v[1], v) for v in variables))


def _select(db, node: Select, child: _Cq):
    scope = dict(child.columns)
    names = sorted(attributes(node.condition))
    if not scope.keys() >= set(names):
        return None
    bound = tuple((name, scope[name]) for name in names)
    return replace(child, filters=child.filters + ((node.condition, bound),))


def _with_columns(cq: _Cq, columns: tuple[tuple[str, _Var], ...]):
    names = [name for name, _ in columns]
    return replace(cq, columns=columns) if len(set(names)) == len(names) else None


def _project(db, node: Project, child: _Cq):
    scope = dict(child.columns)
    if not all(isinstance(term, Attr) and term.name in scope for term, _ in node.items):
        return None
    return _with_columns(child, tuple((name, scope[term.name]) for term, name in node.items))


def _rename(db, node: Rename, child: _Cq):
    mapping = node.as_dict()
    if not dict(child.columns).keys() >= mapping.keys():
        return None
    return _with_columns(
        child, tuple((mapping.get(name, name), var) for name, var in child.columns)
    )


def _combine(left: _Cq, right: _Cq, shared_ok: bool):
    """``left`` ∧ ``right``: atoms concatenated, shared column names identified."""
    if {name for name, _ in left.atoms} & {name for name, _ in right.atoms}:
        return None  # a self-join: two atoms would share their tuples' variables
    scope = dict(left.columns)
    shared = tuple((scope[name], var) for name, var in right.columns if name in scope)
    if shared and not shared_ok:
        return None
    return _Cq(
        left.atoms + right.atoms,
        left.columns + tuple(c for c in right.columns if c[0] not in scope),
        left.filters + right.filters,
        left.equalities + right.equalities + shared,
    )


_CQ_HANDLERS = {
    **dict.fromkeys(NODE_TYPES, _not_liftable),
    BaseRel: _atom,
    Select: _liftable(_select),
    Project: _liftable(_project),
    Rename: _liftable(_rename),
    Join: _liftable(lambda db, node, left, right: _combine(left, right, shared_ok=True)),
    Product: _liftable(lambda db, node, left, right: _combine(left, right, shared_ok=False)),
}


def _resolve(cq: _Cq):
    """``cq`` with every variable replaced by its equality class's first member.

    Returns ``(atoms, head, filters)`` — ``filters`` as (predicate, atom
    index, ((attribute, position in that atom), …)) — or ``None`` when a
    join folded two columns of one atom together or some filter's
    variables do not all occur in a single atom.
    """
    leader: dict[_Var, _Var] = {}

    def find(var: _Var) -> _Var:
        while var in leader:
            var = leader[var]
        return var

    for kept, merged in cq.equalities:
        kept, merged = find(kept), find(merged)
        if kept != merged:
            leader[merged] = kept
    atoms = [tuple(find(var) for var in variables) for _, variables in cq.atoms]
    if any(len(set(variables)) != len(variables) for variables in atoms):
        return None
    filters = []
    for predicate, bound in cq.filters:
        needed = [(name, find(var)) for name, var in bound]
        home = next(
            (i for i, variables in enumerate(atoms) if all(v in variables for _, v in needed)),
            None,
        )
        if home is None:
            return None
        filters.append(
            (predicate, home, tuple((name, atoms[home].index(var)) for name, var in needed))
        )
    return atoms, tuple(find(var) for _, var in cq.columns), filters


# --------------------------------------------------------------------------
# Plan screen, part 2: conjunctive query -> safe plan (or not hierarchical)
# --------------------------------------------------------------------------

_Table = tuple[tuple[_Var, ...], dict[tuple, Prob]]
"""An intermediate result: its variables and, per binding, a probability."""


@dataclass(frozen=True)
class _Scan:
    """One atom's table: every variable free, each row its own event."""

    atom: int

    def run(self, tables: list[_Table]) -> _Table:
        """Return the atom's loaded table."""
        return tables[self.atom]


@dataclass(frozen=True)
class _IndependentJoin:
    """Sub-queries sharing no existential variable: probabilities multiply."""

    parts: tuple

    def run(self, tables: list[_Table]) -> _Table:
        """Natural-join the parts' tables on their free variables."""
        variables, rows = self.parts[0].run(tables)
        for part in self.parts[1:]:
            right_vars, right_rows = part.run(tables)
            shared = [v for v in right_vars if v in variables]
            rest = [i for i, v in enumerate(right_vars) if v not in variables]
            probe = [variables.index(v) for v in shared]
            build = [right_vars.index(v) for v in shared]
            index: dict[tuple, list] = {}
            for key, p in right_rows.items():
                index.setdefault(tuple(key[i] for i in build), []).append(
                    (tuple(key[i] for i in rest), p)
                )
            joined = {}
            for key, p in rows.items():
                for extra, q in index.get(tuple(key[i] for i in probe), ()):
                    joined[key + extra] = p * q
            variables += tuple(right_vars[i] for i in rest)
            rows = joined
        return variables, rows


@dataclass(frozen=True)
class _IndependentProject:
    """Existential variables in every atom: absences multiply per ``keep`` group."""

    keep: tuple[_Var, ...]
    inner: object

    def run(self, tables: list[_Table]) -> _Table:
        """Group the inner table by ``keep``: 1 − ∏(1 − p) per group."""
        variables, rows = self.inner.run(tables)
        kept = [variables.index(v) for v in self.keep]
        absent: dict[tuple, Prob] = {}
        for key, p in rows.items():
            group = tuple(key[i] for i in kept)
            absent[group] = absent.get(group, 1) * (1 - p)
        return self.keep, {group: 1 - q for group, q in absent.items()}


def _components(atoms: list[tuple[int, tuple[_Var, ...]]], free: frozenset[_Var]):
    """``atoms`` grouped by shared existential (non-``free``) variables, in order."""
    groups: list[list] = []
    for atom in atoms:
        bound = {v for v in atom[1] if v not in free}
        linked = [g for g in groups if any(bound & set(other[1]) for other in g)]
        for group in linked:
            groups.remove(group)
        groups.append([a for group in linked for a in group] + [atom])
    return groups


def _compile(atoms: list[tuple[int, tuple[_Var, ...]]], free: frozenset[_Var]):
    """The safe plan of ⋀ ``atoms`` with ``free`` kept, or ``None``: not hierarchical."""
    groups = _components(atoms, free)
    if len(groups) > 1:
        parts = tuple(_compile(group, free) for group in groups)
        return None if None in parts else _IndependentJoin(parts)
    bound = [v for v in atoms[0][1] if v not in free]
    if not bound:
        return _Scan(atoms[0][0])  # alone in its component: nothing links it to another atom
    roots = [v for v in bound if all(v in variables for _, variables in atoms)]
    if not roots:
        return None
    inner = _compile(atoms, free | set(roots))
    if inner is None:
        return None
    keep = tuple(dict.fromkeys(v for _, variables in atoms for v in variables if v in free))
    return _IndependentProject(keep, inner)


# --------------------------------------------------------------------------
# Data screen and evaluation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SafePlan:
    """A plan that passed both screens, bound to the rows it will read.

    ``root`` is the compiled plan over ``atoms`` (one variable tuple
    each), ``head`` the output columns' variables, ``filters`` the
    selections by home atom, ``rows`` each atom's screened
    ``(values, assignment)`` rows and ``w`` where their probabilities
    are read.
    """

    root: object
    head: tuple[_Var, ...]
    atoms: list[tuple[_Var, ...]]
    filters: list[tuple]
    rows: list[tuple]
    w: "VariableTable"

    def _table(self, index: int) -> _Table:
        """Atom ``index``'s filtered rows with their probabilities, read from W."""
        rows = self.rows[index]
        for predicate, home, bound in self.filters:
            if home == index:
                rows = [
                    row
                    for row in rows
                    if predicate.evaluate({name: row[0][i] for name, i in bound})
                ]
        prob = self.w.prob
        return self.atoms[index], {
            values: _CERTAIN if assignment is None else prob(*assignment)
            for values, assignment in rows
        }

    def confidences(self) -> dict[tuple, Prob] | None:
        """Pr[t ∈ result] for every possible result tuple t, in ``repr`` order.

        ``None`` — take the per-DNF path after all — when a selection
        cannot be evaluated on some base row: pushed below the join it
        meets rows the plan's own join would never have shown it (a
        division by a zero that joins nothing, say).
        """
        try:
            tables = [self._table(index) for index in range(len(self.atoms))]
        except (ArithmeticError, TypeError):
            return None
        variables, rows = self.root.run(tables)
        head = [variables.index(v) for v in self.head]
        out = {tuple(key[i] for i in head): p for key, p in rows.items()}
        return dict(sorted(out.items(), key=lambda item: repr(item[0])))


def lift(query: Query, db: "UDatabase") -> SafePlan | None:
    """The safe plan of ``query`` on ``db``, or ``None``: take the per-DNF path.

    Plan screen first (no data is touched), then the data screen (one
    cached verdict per relation); nothing here builds a DNF.
    """
    try:
        cq = fold(query, _CQ_HANDLERS, "extensional", db)
    except TypeError:  # a node nobody knows: the evaluator names it
        return None
    resolved = None if cq is None else _resolve(cq)
    if resolved is None:
        return None
    atoms, head, filters = resolved
    root = _compile(list(enumerate(atoms)), frozenset(head))
    if root is None:
        return None
    relations = [db.relation(name) for name, _ in cq.atoms]
    rows = [relation.independent_rows() for relation in relations]
    if None in rows:
        return None
    variables = [relation.variables() for relation in relations]
    if sum(map(len, variables)) != len(frozenset().union(*variables)):
        return None  # one random variable serves two relations
    return SafePlan(root, head, atoms, filters, rows, db.w)
