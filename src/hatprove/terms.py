"""First-order terms, formulas, substitution and unification.

Shared representation for every prover in the package.  Terms are either
variables or function applications (constants are zero-ary functions).
Variable identity is an integer id; the name is a display hint only.

Proof search backtracks constantly, so bindings live in a trail-backed
store (`Bindings`) that supports cheap mark/undo instead of persistent
substitution maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

# ============================================================
# Terms
# ============================================================

_var_counter = itertools.count(1)


@dataclass(frozen=True)
class Var:
    id: int
    name: str = field(default="_", compare=False)

    def __str__(self):
        return f"{self.name}{self.id}" if self.name == "_" else self.name


@dataclass(frozen=True)
class Fun:
    sym: str
    args: tuple = ()

    def __str__(self):
        if not self.args:
            return self.sym
        return f"{self.sym}({','.join(str(a) for a in self.args)})"


Term = Union[Var, Fun]

# Function symbols created by skolemization start with this prefix; the
# parsers never produce it, so generated symbols cannot clash with the
# input signature.
SKOLEM_PREFIX = "#sk_"


def fresh_var(name: str = "_") -> Var:
    return Var(next(_var_counter), name)


def con(sym: str) -> Fun:
    """A constant: zero-ary function application."""
    return Fun(sym, ())


# ============================================================
# Formulas
# ============================================================


class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    pred: str
    args: tuple = ()

    def __str__(self):
        if not self.args:
            return self.pred
        if self.pred == "=" and len(self.args) == 2:
            return f"{self.args[0]} = {self.args[1]}"
        return f"{self.pred}({','.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"({self.left} , {self.right})"


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"({self.left} ; {self.right})"


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"({self.left} => {self.right})"


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"({self.left} <=> {self.right})"


@dataclass(frozen=True)
class Neg(Formula):
    body: Formula

    def __str__(self):
        return f"~ {self.body}"


@dataclass(frozen=True)
class Forall(Formula):
    var: Var
    body: Formula

    def __str__(self):
        return f"(all {self.var}: {self.body})"


@dataclass(frozen=True)
class Exists(Formula):
    var: Var
    body: Formula

    def __str__(self):
        return f"(ex {self.var}: {self.body})"


BINARY = (And, Or, Imp, Iff)
QUANT = (Forall, Exists)


def is_literal(f: Formula) -> bool:
    """Atom or negated atom."""
    return isinstance(f, Atom) or (isinstance(f, Neg) and isinstance(f.body, Atom))


# ============================================================
# Trail-backed bindings
# ============================================================


class Bindings:
    """Variable bindings with an undo trail.

    Keyed by variable id, so the same class binds term variables to
    terms and, in a separate instance, prefix variables to prefix
    strings.

    bind() never overwrites: a variable is bound at most once until the
    trail is unwound past its entry, which keeps undo O(1) per binding.
    """

    __slots__ = ("_map", "_trail")

    def __init__(self):
        self._map: dict[int, Term] = {}
        self._trail: list[int] = []

    def __len__(self):
        return len(self._map)

    def mark(self) -> int:
        return len(self._trail)

    def undo_to(self, mark: int) -> None:
        while len(self._trail) > mark:
            del self._map[self._trail.pop()]

    def bind(self, var: Var, term: Term) -> None:
        if var.id in self._map:
            raise ValueError(f"variable {var} is already bound")
        self._map[var.id] = term
        self._trail.append(var.id)

    def walk(self, term: Term) -> Term:
        """Follow variable bindings to the representative term."""
        while isinstance(term, Var):
            nxt = self._map.get(term.id)
            if nxt is None:
                return term
            term = nxt
        return term

    def lookup(self, var: Var) -> Optional[Term]:
        return self._map.get(var.id)

    # -- deep application -------------------------------------------------

    def resolve_term(self, term: Term) -> Term:
        term = self.walk(term)
        if isinstance(term, Var) or not isinstance(term, Fun):
            return term
        if not term.args:
            return term
        return Fun(term.sym, tuple(self.resolve_term(a) for a in term.args))

    def resolve_formula(self, f: Formula) -> Formula:
        if isinstance(f, Atom):
            return Atom(f.pred, tuple(self.resolve_term(a) for a in f.args))
        if isinstance(f, Neg):
            return Neg(self.resolve_formula(f.body))
        if isinstance(f, BINARY):
            return type(f)(self.resolve_formula(f.left), self.resolve_formula(f.right))
        if isinstance(f, QUANT):
            return type(f)(f.var, self.resolve_formula(f.body))
        raise TypeError(f"not a formula: {f!r}")


def occurs_in(var: Var, term: Term, bnd: Bindings) -> bool:
    term = bnd.walk(term)
    if isinstance(term, Var):
        return term.id == var.id
    if not isinstance(term, Fun):
        return False  # opaque leaf (e.g. a prefix variable in a skolem term)
    return any(occurs_in(var, a, bnd) for a in term.args)


def unify_occurs(t1: Term, t2: Term, bnd: Bindings) -> bool:
    """Sound unification with occurs check.

    Extends `bnd` in place and returns True on success; on failure the
    bindings are restored to their state at entry.
    """
    mark = bnd.mark()
    if _unify(t1, t2, bnd):
        return True
    bnd.undo_to(mark)
    return False


def _unify(t1: Term, t2: Term, bnd: Bindings) -> bool:
    t1 = bnd.walk(t1)
    t2 = bnd.walk(t2)
    if isinstance(t1, Var):
        if isinstance(t2, Var) and t2.id == t1.id:
            return True
        if occurs_in(t1, t2, bnd):
            return False
        bnd.bind(t1, t2)
        return True
    if isinstance(t2, Var):
        if occurs_in(t2, t1, bnd):
            return False
        bnd.bind(t2, t1)
        return True
    if not isinstance(t1, Fun) or not isinstance(t2, Fun):
        # opaque leaves unify only with themselves
        return t1 == t2
    if t1.sym != t2.sym or len(t1.args) != len(t2.args):
        return False
    return all(_unify(a, b, bnd) for a, b in zip(t1.args, t2.args))


def unify_literals(f1: Formula, f2: Formula, bnd: Bindings) -> bool:
    """Unify two literals of the same sign; restores bindings on failure."""
    if isinstance(f1, Atom) and isinstance(f2, Atom):
        if f1.pred != f2.pred or len(f1.args) != len(f2.args):
            return False
        mark = bnd.mark()
        if all(_unify(a, b, bnd) for a, b in zip(f1.args, f2.args)):
            return True
        bnd.undo_to(mark)
        return False
    if isinstance(f1, Neg) and isinstance(f2, Neg):
        if isinstance(f1.body, Atom) and isinstance(f2.body, Atom):
            return unify_literals(f1.body, f2.body, bnd)
    return False


# ============================================================
# Structural operations
# ============================================================


def substitute(f: Formula, x: Var, t: Term) -> Formula:
    """Replace every free occurrence of x in f by t.

    Assumes f is rectified, so t's variables cannot be captured.
    """
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(_subst_term(a, x, t) for a in f.args))
    if isinstance(f, Neg):
        return Neg(substitute(f.body, x, t))
    if isinstance(f, BINARY):
        return type(f)(substitute(f.left, x, t), substitute(f.right, x, t))
    if isinstance(f, QUANT):
        if f.var.id == x.id:
            return f
        return type(f)(f.var, substitute(f.body, x, t))
    raise TypeError(f"not a formula: {f!r}")


def _subst_term(term: Term, x: Var, t: Term) -> Term:
    if isinstance(term, Var):
        return t if term.id == x.id else term
    if not term.args:
        return term
    return Fun(term.sym, tuple(_subst_term(a, x, t) for a in term.args))


def term_vars(term: Term, acc: Optional[set] = None) -> set:
    if acc is None:
        acc = set()
    if isinstance(term, Var):
        acc.add(term)
    elif isinstance(term, Fun):
        for a in term.args:
            term_vars(a, acc)
    return acc


def free_vars(f: Formula) -> set:
    """Variables with at least one occurrence outside any binder's scope."""
    out: set = set()
    _free_vars(f, set(), out)
    return out


def _free_vars(f: Formula, bound: set, out: set) -> None:
    if isinstance(f, Atom):
        for a in f.args:
            for v in term_vars(a):
                if v.id not in bound:
                    out.add(v)
    elif isinstance(f, Neg):
        _free_vars(f.body, bound, out)
    elif isinstance(f, BINARY):
        _free_vars(f.left, bound, out)
        _free_vars(f.right, bound, out)
    elif isinstance(f, QUANT):
        _free_vars(f.body, bound | {f.var.id}, out)
    else:
        raise TypeError(f"not a formula: {f!r}")


def formula_size(f: Formula) -> int:
    """Number of atoms, connectives and quantifiers in f."""
    if isinstance(f, Atom):
        return 1
    if isinstance(f, Neg):
        return 1 + formula_size(f.body)
    if isinstance(f, BINARY):
        return 1 + formula_size(f.left) + formula_size(f.right)
    if isinstance(f, QUANT):
        return 1 + formula_size(f.body)
    raise TypeError(f"not a formula: {f!r}")


def atoms_of(f: Formula) -> set:
    """Propositional atom names, sorted order is up to the caller."""
    if isinstance(f, Atom):
        return {f.pred}
    if isinstance(f, Neg):
        return atoms_of(f.body)
    if isinstance(f, BINARY):
        return atoms_of(f.left) | atoms_of(f.right)
    if isinstance(f, QUANT):
        return atoms_of(f.body)
    raise TypeError(f"not a formula: {f!r}")


# ============================================================
# Fresh copies and skolem terms
# ============================================================


def fresh_copy(payload, frozen: Iterable[Var], bnd: Optional[Bindings] = None):
    """Copy a formula/term, renaming unbound variables consistently.

    Variables reachable from `frozen` (through current bindings) keep
    their identity; every other unbound variable, including quantifier
    binders, is renamed to a fresh one.  Bound variables are resolved to
    their values before copying, so the copy shares the caller's
    instantiation state.
    """
    if bnd is None:
        bnd = Bindings()
    frozen_ids: set = set()
    for v in frozen:
        for w in term_vars(bnd.resolve_term(v)):
            frozen_ids.add(w.id)
    mapping: dict[int, Var] = {}

    def cp_term(t: Term) -> Term:
        t = bnd.walk(t)
        if isinstance(t, Var):
            if t.id in frozen_ids:
                return t
            if t.id not in mapping:
                mapping[t.id] = fresh_var(t.name)
            return mapping[t.id]
        if not t.args:
            return t
        return Fun(t.sym, tuple(cp_term(a) for a in t.args))

    def cp_formula(f: Formula) -> Formula:
        if isinstance(f, Atom):
            return Atom(f.pred, tuple(cp_term(a) for a in f.args))
        if isinstance(f, Neg):
            return Neg(cp_formula(f.body))
        if isinstance(f, BINARY):
            return type(f)(cp_formula(f.left), cp_formula(f.right))
        if isinstance(f, QUANT):
            return type(f)(cp_term(f.var), cp_formula(f.body))
        raise TypeError(f"not a formula: {f!r}")

    if isinstance(payload, Formula):
        return cp_formula(payload)
    if isinstance(payload, (Var, Fun)):
        return cp_term(payload)
    if isinstance(payload, tuple):
        return tuple(
            cp_formula(p) if isinstance(p, Formula) else cp_term(p) for p in payload
        )
    raise TypeError(f"cannot copy: {payload!r}")


def skolem_term(site_id, free_vars_seq: Iterable[Var]) -> Fun:
    """Skolem term for a quantifier site over the branch's free variables.

    Deterministic in its arguments: the same site with the same variable
    list yields the identical term.
    """
    return Fun(f"{SKOLEM_PREFIX}{site_id}", tuple(free_vars_seq))


# ============================================================
# Comparisons
# ============================================================


def alpha_equal(f: Formula, g: Formula, free_bijection: bool = False) -> bool:
    """Structural equality modulo renaming of bound variables.

    With free_bijection=True, free variables may also be renamed, as
    long as the renaming is one-to-one.
    """
    fmap: dict[int, int] = {}
    gmap: dict[int, int] = {}

    def tv(a: Term, b: Term) -> bool:
        if isinstance(a, Var) and isinstance(b, Var):
            if a.id in fmap or b.id in gmap:
                return fmap.get(a.id) == b.id and gmap.get(b.id) == a.id
            if free_bijection:
                fmap[a.id] = b.id
                gmap[b.id] = a.id
                return True
            return a.id == b.id
        if isinstance(a, Fun) and isinstance(b, Fun):
            return (
                a.sym == b.sym
                and len(a.args) == len(b.args)
                and all(tv(x, y) for x, y in zip(a.args, b.args))
            )
        return False

    def go(a: Formula, b: Formula) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, Atom):
            return (
                a.pred == b.pred
                and len(a.args) == len(b.args)
                and all(tv(x, y) for x, y in zip(a.args, b.args))
            )
        if isinstance(a, Neg):
            return go(a.body, b.body)
        if isinstance(a, BINARY):
            return go(a.left, b.left) and go(a.right, b.right)
        # quantifier: bind the two binders to each other
        oldf, oldg = fmap.get(a.var.id), gmap.get(b.var.id)
        had_f, had_g = a.var.id in fmap, b.var.id in gmap
        fmap[a.var.id] = b.var.id
        gmap[b.var.id] = a.var.id
        ok = go(a.body, b.body)
        if had_f:
            fmap[a.var.id] = oldf
        else:
            del fmap[a.var.id]
        if had_g:
            gmap[b.var.id] = oldg
        else:
            del gmap[b.var.id]
        return ok

    return go(f, g)


def struct_equal(f: Formula, g: Formula, bnd: Bindings) -> bool:
    """Syntactic identity of the current instantiations (Prolog's ==)."""

    def tv(a: Term, b: Term) -> bool:
        a = bnd.walk(a)
        b = bnd.walk(b)
        if isinstance(a, Var) or isinstance(b, Var):
            return isinstance(a, Var) and isinstance(b, Var) and a.id == b.id
        return (
            a.sym == b.sym
            and len(a.args) == len(b.args)
            and all(tv(x, y) for x, y in zip(a.args, b.args))
        )

    def go(a: Formula, b: Formula) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, Atom):
            return (
                a.pred == b.pred
                and len(a.args) == len(b.args)
                and all(tv(x, y) for x, y in zip(a.args, b.args))
            )
        if isinstance(a, Neg):
            return go(a.body, b.body)
        if isinstance(a, BINARY):
            return go(a.left, b.left) and go(a.right, b.right)
        return a.var.id == b.var.id and go(a.body, b.body)

    return go(f, g)
