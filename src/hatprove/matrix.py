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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from .terms import (
    Atom,
    And,
    Bindings,
    Exists,
    Forall,
    Formula,
    Fun,
    Iff,
    Imp,
    Neg,
    Or,
    Term,
    Var,
    free_vars,
    fresh_var,
    substitute,
)

# ============================================================
# Prefix symbols
# ============================================================

_pvar_counter = itertools.count(1)


@dataclass(frozen=True)
class PVar:
    id: int
    name: str = field(default="V", compare=False)

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class PConst:
    name: str
    args: tuple = ()  # Term or PVar dependencies

    def __str__(self):
        if not self.args:
            return self.name
        return f"{self.name}({','.join(str(a) for a in self.args)})"


PSym = Union[PVar, PConst]


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
    clause: "MatClause" = None

    def __str__(self):
        head = Atom(self.pred, self.args)
        pre = " ".join(str(s) for s in self.prefix)
        return f"{head}^{self.pol}:{pre}"


@dataclass(eq=False)
class MatClause:
    label: int
    copy_ix: int
    elements: list
    parent: "MatMatrix" = None
    rename_tvars: frozenset = frozenset()  # Var ids a copy renames
    rename_pvars: frozenset = frozenset()  # PVar ids a copy renames

    def __str__(self):
        return "{" + ", ".join(str(e) for e in self.elements) + "}"


@dataclass(eq=False)
class MatMatrix:
    clauses: list
    parent: Optional[MatClause] = None

    def __str__(self):
        return "{" + ", ".join(str(c) for c in self.clauses) + "}"


def iter_literals(node):
    if isinstance(node, MatLit):
        yield node
    elif isinstance(node, MatClause):
        for e in node.elements:
            yield from iter_literals(e)
    else:
        for c in node.clauses:
            yield from iter_literals(c)


def iter_clauses(node):
    if isinstance(node, MatClause):
        yield node
        for e in node.elements:
            if isinstance(e, MatMatrix):
                yield from iter_clauses(e)
    elif isinstance(node, MatMatrix):
        for c in node.clauses:
            yield from iter_clauses(c)


# ============================================================
# Construction
# ============================================================


class MatrixBuilder:
    def __init__(self):
        self.a_count = 0
        self.v_count = 0
        self.x_count = 0
        self.f_count = 0
        self.label_count = 0

    def _aconst(self, deps) -> PConst:
        self.a_count += 1
        return PConst(f"a{self.a_count}", tuple(deps))

    def _pvar(self) -> PVar:
        self.v_count += 1
        return fresh_pvar(f"V{self.v_count}")

    def _tvar(self) -> Var:
        self.x_count += 1
        return fresh_var(f"x{self.x_count}")

    def _skolem(self, deps) -> Fun:
        self.f_count += 1
        return Fun(f"#f{self.f_count}", tuple(deps))

    def _deps(self, f: Formula, prefix: tuple) -> list:
        """Free term and prefix variables of the prefixed formula."""
        deps = sorted(free_vars(f), key=lambda v: v.id)
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
            expanded = And(Imp(f.left, f.right), Imp(f.right, f.left))
            return self.build(expanded, pol, prefix)
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
                x = self._tvar()
                body = substitute(f.body, f.var, x)
                return self.build(body, 1, prefix + (self._pvar(),))
            deps = self._deps(f, prefix)  # delta
            body = substitute(f.body, f.var, self._skolem(deps))
            return self.build(body, 0, prefix + (self._aconst(deps),))
        if isinstance(f, Exists):
            if pol == 0:  # gamma, no prefix extension
                x = self._tvar()
                return self.build(substitute(f.body, f.var, x), 0, prefix)
            deps = self._deps(f, prefix)  # delta
            return self.build(substitute(f.body, f.var, self._skolem(deps)), 1, prefix)
        raise TypeError(f"not a formula: {f!r}")

    def _clause(self, elements) -> MatClause:
        self.label_count += 1
        clause = MatClause(self.label_count, 0, list(elements))
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
    builder = MatrixBuilder()
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
    """Clause set each term/prefix variable occurs under, per literal."""
    tocc: dict[int, list] = {}
    pocc: dict[int, list] = {}

    def note(d, key, clause):
        d.setdefault(key, []).append(clause)

    def tv(t, lit):
        if isinstance(t, Var):
            note(tocc, t.id, lit.clause)
        elif isinstance(t, PVar):
            note(pocc, t.id, lit.clause)
        else:
            for a in t.args:
                tv(a, lit)

    def psym_vars(sym, lit):
        if isinstance(sym, PVar):
            note(pocc, sym.id, lit.clause)
        else:
            for a in sym.args:
                tv(a, lit)

    for lit in iter_literals(root):
        for a in lit.args:
            tv(a, lit)
        for sym in lit.prefix:
            psym_vars(sym, lit)
    return tocc, pocc


def node_chain(node) -> list:
    """The clauses and matrices from node up to the root; a literal's
    chain starts at its clause."""
    out = []
    node = node.clause if isinstance(node, MatLit) else node
    while node is not None:
        out.append(node)
        node = node.parent
    return out


def _compute_renameable(root: MatMatrix) -> None:
    """A copy of clause C may rename variable x iff every occurrence of
    x outside C diverges from C at a matrix (a sibling clause, over
    which a quantifier distributes), never at an enclosing clause (a
    sibling element, whose instances must stay linked)."""
    tocc, pocc = _occurrences(root)
    for clause in iter_clauses(root):
        chain_ids = {id(n) for n in node_chain(clause)}
        tset, pset = set(), set()
        for occ, out in ((tocc, tset), (pocc, pset)):
            for key, homes in occ.items():
                relevant = False
                shared = False
                for home in homes:
                    chain = node_chain(home)
                    if any(n is clause for n in chain):
                        relevant = True
                        continue
                    common = next((n for n in chain if id(n) in chain_ids), None)
                    if isinstance(common, MatClause):
                        shared = True
                if relevant and not shared:
                    out.add(key)
        clause.rename_tvars = frozenset(tset)
        clause.rename_pvars = frozenset(pset)


# ============================================================
# Copying
# ============================================================


def copy_clause(clause: MatClause, copy_counter) -> tuple:
    """Fresh copy renaming the clause's renameable variables.

    Returns (copy, literal map from original to copied literals).
    """
    tmap: dict[int, Var] = {}
    pmap: dict[int, PVar] = {}
    litmap: dict[int, MatLit] = {}

    def cp_term(t: Term) -> Term:
        if isinstance(t, Var):
            if t.id in clause.rename_tvars:
                if t.id not in tmap:
                    tmap[t.id] = fresh_var(t.name + "'")
                return tmap[t.id]
            return t
        if isinstance(t, PVar):
            return cp_psym(t)
        if not t.args:
            return t
        return Fun(t.sym, tuple(cp_term(a) for a in t.args))

    def cp_psym(s: PSym) -> PSym:
        if isinstance(s, PVar):
            if s.id in clause.rename_pvars:
                if s.id not in pmap:
                    pmap[s.id] = fresh_pvar(s.name + "'")
                return pmap[s.id]
            return s
        return PConst(s.name, tuple(cp_term(a) for a in s.args))

    def cp(node, parent):
        if isinstance(node, MatLit):
            lit = MatLit(
                node.pred,
                tuple(cp_term(a) for a in node.args),
                node.pol,
                tuple(cp_psym(s) for s in node.prefix),
                parent,
            )
            litmap[id(node)] = lit
            return lit
        if isinstance(node, MatClause):
            c = MatClause(node.label, next(copy_counter), [])
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
    return new_clause, litmap


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
        if isinstance(e, MatMatrix) and _contains(e, lit):
            inner = next(c for c in e.clauses if _contains(c, lit))
            out.extend(beta_clause(inner, lit))
        else:
            out.append(e)
    return out


def _contains(node, lit) -> bool:
    return any(l is lit for l in iter_literals(node))


# ============================================================
# Display and canonical form
# ============================================================


def matrix_str(m: MatMatrix, bnd: Optional[Bindings] = None) -> str:
    bnd = bnd or Bindings()

    def pterm(t):
        t = bnd.resolve_term(t)
        if isinstance(t, Var):
            return str(t)
        if not t.args:
            return t.sym
        return f"{t.sym}({','.join(pterm(a) for a in t.args)})"

    def psym(s):
        if isinstance(s, PVar):
            return s.name
        if not s.args:
            return s.name
        parts = ",".join(
            a.name if isinstance(a, PVar) else pterm(a) for a in s.args
        )
        return f"{s.name}({parts})"

    def lit(l):
        head = l.pred if not l.args else f"{l.pred}({','.join(pterm(a) for a in l.args)})"
        return f"{head}^{l.pol}:" + "".join(psym(s) for s in l.prefix)

    def go(node):
        if isinstance(node, MatLit):
            return lit(node)
        if isinstance(node, MatClause):
            return "{" + ",".join(go(e) for e in node.elements) + "}"
        return "{" + ",".join(go(c) for c in node.clauses) + "}"

    return go(m)


def canonical_form(m: MatMatrix):
    """Structure with fresh symbols renumbered by first occurrence.

    Two matrices equal up to consistent renaming of prefix constants,
    prefix variables, term variables and skolem functions canonicalize
    identically.
    """
    amap: dict[str, int] = {}
    vmap: dict[int, int] = {}
    xmap: dict[int, int] = {}
    fmap: dict[str, int] = {}

    def num(d, key):
        if key not in d:
            d[key] = len(d) + 1
        return d[key]

    def cterm(t):
        if isinstance(t, Var):
            return ("x", num(xmap, t.id))
        if t.sym.startswith("#"):
            return ("f", num(fmap, t.sym)) + tuple(cterm(a) for a in t.args)
        return (t.sym,) + tuple(cterm(a) for a in t.args)

    def csym(s):
        if isinstance(s, PVar):
            return ("V", num(vmap, s.id))
        return ("a", num(amap, s.name)) + tuple(
            csym(a) if isinstance(a, PVar) else cterm(a) for a in s.args
        )

    def go(node):
        if isinstance(node, MatLit):
            return (
                "lit",
                node.pred,
                node.pol,
                tuple(cterm(a) for a in node.args),
                tuple(csym(s) for s in node.prefix),
            )
        if isinstance(node, MatClause):
            return ("clause",) + tuple(go(e) for e in node.elements)
        return ("matrix",) + tuple(go(c) for c in node.clauses)

    return go(m)
