"""Prefixed non-clausal matrices for intuitionistic logic.

A matrix is a set of clauses; a clause is a set of literals and nested
matrices.  Every literal carries a prefix: a string of prefix variables
and prefix constants that encodes its position in the Kripke frame.
Construction rules, per connective shape and polarity:

* alpha shapes (negative conjunction, positive disjunction, positive
  implication, both negation polarities) contribute their operands'
  clauses side by side;
* beta shapes (positive conjunction, negative disjunction, negative
  implication) merge the operands into one clause;
* gamma quantifiers (negative universal, positive existential)
  introduce a fresh term variable, the negative universal also a fresh
  prefix variable;
* delta quantifiers (positive universal, negative existential)
  introduce a skolem term over the free term and prefix variables in
  scope, the positive universal also a dependent prefix constant.

Positive atoms append a fresh prefix constant, negative atoms a fresh
prefix variable.  Here polarity 0 marks positive occurrences (to be
proved) and polarity 1 negative ones.

Clause copies rename term and prefix variables, but only those whose
occurrences outside the copied clause are all in sibling clauses of
some matrix (an alpha relation, over which a quantifier distributes).
A variable that also occurs in a sibling element of an enclosing
clause is shared and must keep its identity, or instances from
different parts of one clause could be mixed unsoundly.

This is the one matrix layer of the package: every structural walk over
a matrix, a prefix or a prefix symbol lives here, and the search
(`connection`) and the unifier (`prefixes`) call it.  `iter_literals`
and `iter_clauses` keep an explicit stack; `node_chain` runs from a
node up to the root, and on it rest the containment test `contains`,
`meet`, where two nodes diverge, and the renameability pass of
`build_matrix`.  That pass walks each variable's occurrences once, up
and down the chain of each distinct clause the variable occurs in, so
it costs O(occurrences x depth) rather than a `meet` per clause,
variable and occurrence.  `leaves` yields the term and prefix variables
of terms and prefix symbols; `matrix_str` is the one printer, which
`str` of every matrix node and prefix symbol calls.  A fresh build
numbers its symbols per builder (`a1`, `V1`, `x1`, `#f1`, ...),
so its printed form is canonical.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from .terms import (
    Atom,
    And,
    Exists,
    Forall,
    Formula,
    Fun,
    Iff,
    Imp,
    Neg,
    Or,
    Var,
    free_vars,
    fresh_var,
    is_ground,
    substitute,
    unfold_iff,
)

# ============================================================
# Prefix symbols
# ============================================================

_pvar_counter = itertools.count(1)


@dataclass(frozen=True)
class PVar:
    id: int
    name: str = field(default="V", compare=False)


@dataclass(frozen=True)
class PConst:
    name: str
    args: tuple = ()  # Term or PVar dependencies


def fresh_pvar(name: str) -> PVar:
    return PVar(next(_pvar_counter), name)


# ============================================================
# Matrix structure
# ============================================================


@dataclass(eq=False)
class MatLit:
    pred: str
    args: tuple
    pol: int
    prefix: tuple
    clause: "MatClause" = field(default=None, repr=False)


@dataclass(eq=False)
class MatClause:
    label: int
    elements: list
    parent: "MatMatrix" = field(default=None, repr=False)
    rename_tvars: frozenset = frozenset()  # Var ids a copy renames
    rename_pvars: frozenset = frozenset()  # PVar ids a copy renames


@dataclass(eq=False)
class MatMatrix:
    clauses: list
    parent: Optional[MatClause] = field(default=None, repr=False)


# ============================================================
# Walks
# ============================================================


def _children(node) -> list:
    return node.elements if isinstance(node, MatClause) else node.clauses


def iter_literals(node) -> Iterator[MatLit]:
    """The literals below node, left to right."""
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, MatLit):
            yield n
        else:
            stack += reversed(_children(n))


def iter_clauses(node) -> Iterator[MatClause]:
    """The clauses at or below node, each before the clauses nested in it."""
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, MatClause):
            yield n
            stack += [e for e in reversed(n.elements) if isinstance(e, MatMatrix)]
        elif isinstance(n, MatMatrix):
            stack += reversed(n.clauses)


def node_chain(node) -> list:
    """The clauses and matrices from node up to the root; a literal's
    chain starts at its clause."""
    out = []
    node = node.clause if isinstance(node, MatLit) else node
    while node is not None:
        out.append(node)
        node = node.parent
    return out


def contains(node, lit: MatLit) -> bool:
    """lit lies below the clause or matrix node."""
    return any(n is node for n in node_chain(lit))


def meet(node, other):
    """The first node of node's chain that is also on other's chain.

    other itself when node lies below it; otherwise where the two
    diverge: a matrix for sibling clauses (alpha-related), a clause for
    sibling elements of one clause (beta-related)."""
    ids = {id(n) for n in node_chain(other)}
    return next((n for n in node_chain(node) if id(n) in ids), None)


_LEAF = (Var, PVar)


def leaves(items: Sequence) -> Iterator[Union[Var, PVar]]:
    """The Var and PVar leaves of a sequence of terms and prefix
    symbols, left to right, looking through Fun and PConst arguments."""
    stack = list(reversed(items))
    while stack:
        t = stack.pop()
        if isinstance(t, _LEAF):
            yield t
        elif t.args:
            stack.extend(reversed(t.args))


# ============================================================
# Construction
# ============================================================


class MatrixBuilder:
    def __init__(self, ground: bool):
        # a goal without term variables: no subformula has a free one
        self.ground = ground
        self.count = Counter()  # per kind of symbol, and of clause labels

    def _next(self, kind: str) -> int:
        self.count[kind] += 1
        return self.count[kind]

    def _aconst(self, deps) -> PConst:
        return PConst(f"a{self._next('a')}", tuple(deps))

    def _pvar(self) -> PVar:
        return fresh_pvar(f"V{self._next('V')}")

    def _deps(self, f: Formula, prefix: tuple) -> list:
        """Free term and prefix variables of the prefixed formula."""
        deps = [] if self.ground else sorted(free_vars(f), key=lambda v: v.id)
        for s in prefix:
            # compare objects: Var and PVar ids come from separate counters
            if isinstance(s, PVar) and s not in deps:
                deps.append(s)
        return deps

    def build(self, f: Formula, pol: int, prefix: tuple) -> list:
        """Clause list of the matrix of f^pol with the given prefix."""
        if isinstance(f, Atom):
            sym = self._aconst(self._deps(f, prefix)) if pol == 0 else self._pvar()
            lit = MatLit(f.pred, f.args, pol, prefix + (sym,))
            return [self._clause([lit])]
        if isinstance(f, Iff):
            return self.build(unfold_iff(f.left, f.right), pol, prefix)
        if isinstance(f, Neg):
            if pol == 0:
                return self.build(f.body, 1, prefix + (self._aconst(self._deps(f, prefix)),))
            return self.build(f.body, 0, prefix + (self._pvar(),))
        if isinstance(f, And):
            if pol == 1:  # alpha
                return self.build(f.left, 1, prefix) + self.build(f.right, 1, prefix)
            return [self._beta(f.left, f.right, 0, 0, prefix, prefix)]
        if isinstance(f, Or):
            if pol == 0:  # alpha
                return self.build(f.left, 0, prefix) + self.build(f.right, 0, prefix)
            return [self._beta(f.left, f.right, 1, 1, prefix, prefix)]
        if isinstance(f, Imp):
            if pol == 0:  # alpha, both sides one world further
                ext = prefix + (self._aconst(self._deps(f, prefix)),)
                return self.build(f.left, 1, ext) + self.build(f.right, 0, ext)
            ext = prefix + (self._pvar(),)
            return [self._beta(f.left, f.right, 0, 1, ext, ext)]
        if isinstance(f, Forall):
            if pol == 1:  # gamma
                body = substitute(f.body, f.var, fresh_var(f"x{self._next('x')}"))
                return self.build(body, 1, prefix + (self._pvar(),))
            deps = self._deps(f, prefix)  # delta
            body = substitute(f.body, f.var, Fun(f"#f{self._next('#f')}", tuple(deps)))
            return self.build(body, 0, prefix + (self._aconst(deps),))
        if isinstance(f, Exists):
            if pol == 0:  # gamma, no prefix extension
                body = substitute(f.body, f.var, fresh_var(f"x{self._next('x')}"))
                return self.build(body, 0, prefix)
            deps = self._deps(f, prefix)  # delta
            body = substitute(f.body, f.var, Fun(f"#f{self._next('#f')}", tuple(deps)))
            return self.build(body, 1, prefix)
        raise TypeError(f"not a formula: {f!r}")

    def _clause(self, elements) -> MatClause:
        clause = MatClause(self._next("label"), list(elements))
        for e in clause.elements:
            _set_parent(e, clause)
        return clause

    def _beta(self, g, h, gpol, hpol, gprefix, hprefix) -> MatClause:
        elements = []
        for part, pol, pre in ((g, gpol, gprefix), (h, hpol, hprefix)):
            clauses = self.build(part, pol, pre)
            if len(clauses) == 1:
                elements.extend(clauses[0].elements)  # splice single clause
            else:
                elements.append(MatMatrix(clauses))
        return self._clause(elements)


def _set_parent(e, clause):
    if isinstance(e, MatLit):
        e.clause = clause
    else:
        e.parent = clause
        for c in e.clauses:
            c.parent = e


def build_matrix(f: Formula) -> MatMatrix:
    """The intuitionistic non-clausal matrix M(f^0 : empty prefix)."""
    builder = MatrixBuilder(is_ground((f,)))
    clauses = builder.build(f, 0, ())
    root = MatMatrix(clauses)
    for c in clauses:
        c.parent = root
    _compute_renameable(root)
    return root


# ============================================================
# Renameability analysis
# ============================================================


def _occurrences(root: MatMatrix):
    """Per term and per prefix variable id, the clauses it occurs in
    directly, each once (a dict used as an ordered set)."""
    tocc: dict[int, dict] = {}
    pocc: dict[int, dict] = {}
    for lit in iter_literals(root):
        for v in leaves(lit.args + lit.prefix):
            occ = tocc if isinstance(v, Var) else pocc
            occ.setdefault(v.id, {})[lit.clause] = None
    return tocc, pocc


def _compute_renameable(root: MatMatrix) -> None:
    """A copy of clause C may rename variable x iff x occurs under C and
    every occurrence of x outside C diverges from C at a matrix (a
    sibling clause, over which a quantifier distributes), never at an
    enclosing clause (a sibling element, whose instances must stay
    linked).

    Per variable, the chain of each home clause (one x occurs in) is
    walked twice.  Up: each clause on it records the elements through
    which homes lie below it.  Down, from the root: every clause passed
    renames x, up to and including the first that poisons x for the
    clauses below it, by being a home itself or by having homes under
    two or more of its elements."""
    renames: dict[MatClause, tuple] = {}  # (term var ids, prefix var ids)
    for slot, occ in enumerate(_occurrences(root)):
        for key, homes in occ.items():
            chains = [node_chain(h) for h in homes]
            branches: dict[MatClause, set] = {}
            for chain in chains:
                for below, node in zip(chain, chain[1:]):
                    if isinstance(node, MatClause):
                        branches.setdefault(node, set()).add(below)
            for chain in chains:
                for node in reversed(chain):
                    if isinstance(node, MatClause):
                        renames.setdefault(node, (set(), set()))[slot].add(key)
                        if node in homes or len(branches.get(node, ())) > 1:
                            break
    for clause, (tset, pset) in renames.items():
        clause.rename_tvars = frozenset(tset)
        clause.rename_pvars = frozenset(pset)


# ============================================================
# Copying
# ============================================================


def copy_clause(clause: MatClause) -> MatClause:
    """Fresh copy renaming the clause's renameable variables.

    The copy keeps the clause's shape and order, so its literals come in
    the order of the clause's literals.
    """
    tmap: dict[int, Var] = {}
    pmap: dict[int, PVar] = {}

    def cp_sym(t):
        """A term or prefix symbol with its renameable variables renamed."""
        if isinstance(t, Var):
            if t.id in clause.rename_tvars:
                if t.id not in tmap:
                    tmap[t.id] = fresh_var(t.name + "'")
                return tmap[t.id]
            return t
        if isinstance(t, PVar):
            if t.id in clause.rename_pvars:
                if t.id not in pmap:
                    pmap[t.id] = fresh_pvar(t.name + "'")
                return pmap[t.id]
            return t
        if not t.args:
            return t
        args = tuple(cp_sym(a) for a in t.args)
        return Fun(t.sym, args) if isinstance(t, Fun) else PConst(t.name, args)

    def cp(node, parent):
        if isinstance(node, MatLit):
            return MatLit(
                node.pred,
                tuple(cp_sym(a) for a in node.args),
                node.pol,
                tuple(cp_sym(s) for s in node.prefix),
                parent,
            )
        if isinstance(node, MatClause):
            c = MatClause(node.label, [])
            c.elements = [cp(e, c) for e in node.elements]
            for e in c.elements:
                if isinstance(e, MatMatrix):
                    e.parent = c
            copied.append((node, c))
            return c
        m = MatMatrix([], parent if isinstance(parent, MatClause) else None)
        m.clauses = [cp(c, m) for c in node.clauses]
        for c in m.clauses:
            c.parent = m
        return m

    copied: list = []
    new_clause = cp(clause, None)
    new_clause.parent = clause.parent
    # rename sets must follow the renaming, or copies of copies would
    # stop renaming the variables their original was allowed to rename
    for orig, c in copied:
        c.rename_tvars = frozenset(
            tmap[i].id if i in tmap else i for i in orig.rename_tvars
        )
        c.rename_pvars = frozenset(
            pmap[i].id if i in pmap else i for i in orig.rename_pvars
        )
    return new_clause


def beta_clause(clause: MatClause, lit: MatLit) -> list:
    """Clause elements left after removing lit.

    When lit is nested, the matrix containing it is replaced by the
    beta-clause of the inner clause holding lit; the matrix's sibling
    clauses are dropped.
    """
    out = []
    for e in clause.elements:
        if e is lit:
            continue
        if isinstance(e, MatMatrix) and contains(e, lit):
            inner = next(c for c in e.clauses if contains(c, lit))
            out.extend(beta_clause(inner, lit))
        else:
            out.append(e)
    return out


# ============================================================
# Display
# ============================================================


def _joined(items) -> list:
    out = []
    for i, x in enumerate(items):
        out += [",", x] if i else [x]
    return out


def _pieces(x) -> list:
    """x as strings and the nodes, symbols and terms printed inside it."""
    if isinstance(x, (MatMatrix, MatClause)):
        return ["{", *_joined(_children(x)), "}"]
    if isinstance(x, MatLit):
        head, args, tail = x.pred, x.args, [f"^{x.pol}:", *x.prefix]
    elif isinstance(x, PConst):
        head, args, tail = x.name, x.args, []
    elif isinstance(x, Fun):
        head, args, tail = x.sym, x.args, []
    else:  # a prefix variable by its name, a term variable as `str` shows it
        return [x.name if isinstance(x, PVar) else str(x)]
    if args:
        return [head, "(", *_joined(args), ")", *tail]
    return [head, *tail]


def matrix_str(x) -> str:
    """A matrix, clause, literal, prefix symbol or term on one line, as
    in `{{p^1:a1V1},{p^0:a1a2}}`, `=(x1,x2)^0:a1` or `a2(x1,V1)`."""
    out = []
    stack = [x]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        else:
            stack.extend(reversed(_pieces(x)))
    return "".join(out)


for _cls in (PVar, PConst, MatLit, MatClause, MatMatrix):
    _cls.__str__ = matrix_str
