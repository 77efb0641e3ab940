"""First-order terms, formulas, substitution and unification.

The one formula layer of the package.  Terms are either variables or
function applications (constants are zero-ary functions).  Variable
identity is an integer id; the name is a display hint only.

Every structural walk over a formula lives here, and other modules do
not walk formula structure themselves; they split on a formula's shape
only to apply a rule, build a matrix or evaluate.  The walkers
`subformulas` (pre-order), `signature` and `free_vars` and the one
printer `formula_str`, which `str` of every formula and `Fun` and
`frontend.to_native` call, keep an explicit stack, so formula depth is
bounded by memory, not by the recursion limit; `formula_size` and
`is_ground` read `subformulas`.  The one
rebuild, `map_terms`, maps the arguments of every atom and shares each
part in which nothing changes; `substitute` and
`Bindings.resolve_formula` run on it.  Every engine instantiates a
quantifier with `substitute`, so an instance shares the inner binders
of its body: formulas are rectified, and a binder is substituted away
before it could occur free.  Walks over a term (`rewrite_term`,
`occurs_in`, unification, `struct_equal`) keep an explicit stack too.

Proof search backtracks constantly, so bindings live in a trail-backed
store (`Bindings`) that supports cheap mark/undo instead of persistent
substitution maps.

Searches hash and compare formulas at every node, so both are cheap
when nothing is bound: a formula or `Fun` computes its structural hash
on first use and keeps it, and on an empty trail `resolve_formula`
returns its argument and `struct_equal` is `==`.  A ground search
therefore builds no formula to resolve, and hashes each formula once.  With bindings,
resolving rebuilds only the parts that a binding changes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from operator import attrgetter, is_
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


@dataclass(frozen=True, eq=False)
class Fun:
    """A function application; a constant has no arguments.

    Hash and `==` are structural, as a frozen dataclass's would be, but
    walk the arguments with an explicit stack, so term depth is bounded
    by memory, not by the recursion limit.  The hash is computed
    bottom-up on first use and kept.  A pickle holds the term in postfix
    order, without the kept hash: `str` hashes differ between processes.
    """

    sym: str
    args: tuple = ()

    _hash = None  # not a field: set on the instance once computed

    def __hash__(self):
        if self._hash is None:
            stack = [self]
            while stack:
                t = stack[-1]
                todo = [a for a in t.args if type(a) is Fun and a._hash is None]
                if todo:
                    stack += todo
                else:
                    stack.pop()
                    # the arguments' hashes are kept, so this does not recurse
                    object.__setattr__(t, "_hash", hash((t.sym, t.args)))
        return self._hash

    def __eq__(self, other):
        if type(other) is not Fun:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if type(a) is not Fun or type(b) is not Fun:
                if a != b:
                    return False
            elif (
                a.sym != b.sym
                or len(a.args) != len(b.args)
                or (a._hash is not None and b._hash is not None and a._hash != b._hash)
            ):
                return False
            else:
                todo += zip(a.args, b.args)
        return True

    def __reduce__(self):
        # pre-order with the arguments right to left, so reversed it is
        # postfix with the arguments left to right
        items, stack = [], [self]
        while stack:
            t = stack.pop()
            if type(t) is Fun:
                items.append((t.sym, len(t.args)))
                stack += t.args
            else:
                items.append(t)
        items.reverse()
        return _fun_from_postfix, (items,)


def _fun_from_postfix(items: list) -> Fun:
    """The term of `Fun.__reduce__`: a `(sym, n)` item applies sym to the
    last n values, any other item is a leaf."""
    stack = []
    for x in items:
        if type(x) is tuple:
            sym, n = x
            args = tuple(stack[len(stack) - n :])
            del stack[len(stack) - n :]
            x = Fun(sym, args)
        stack.append(x)
    return stack[0]


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


@dataclass(frozen=True, slots=True)
class Formula:
    """Base of the formula classes, each a frozen dataclass with slots.

    The structural hash is the one a frozen dataclass would compute,
    but it is computed on first use and kept in the `_hash` slot, so
    hashing a formula whose parts are already hashed costs one tuple
    hash.  The kept hash is not pickled: `str` hashes differ between
    processes.
    """

    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._field_values(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return type(self), self._field_values(self)


def _formula(cls):
    """Frozen dataclass with slots and the kept hash of `Formula`."""
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [f.name for f in fields(cls) if f.compare]
    get = attrgetter(*names)
    # the tuple of field values; attrgetter of one name returns the value
    cls._field_values = staticmethod(get if len(names) > 1 else lambda f: (get(f),))
    cls.__hash__ = Formula.__hash__
    return cls


@_formula
class Atom(Formula):
    pred: str
    args: tuple = ()


@_formula
class And(Formula):
    left: Formula
    right: Formula


@_formula
class Or(Formula):
    left: Formula
    right: Formula


@_formula
class Imp(Formula):
    left: Formula
    right: Formula


@_formula
class Iff(Formula):
    left: Formula
    right: Formula


@_formula
class Neg(Formula):
    body: Formula


@_formula
class Forall(Formula):
    var: Var
    body: Formula


@_formula
class Exists(Formula):
    var: Var
    body: Formula


BINARY = (And, Or, Imp, Iff)
QUANT = (Forall, Exists)


def unfold_iff(a: Formula, b: Formula) -> Formula:
    """`a <=> b` as `(a => b) , (b => a)`, the one expansion every engine uses."""
    return And(Imp(a, b), Imp(b, a))


def is_literal(f: Formula) -> bool:
    """Atom or negated atom."""
    return isinstance(f, Atom) or (isinstance(f, Neg) and isinstance(f.body, Atom))


# ============================================================
# Printing
# ============================================================

_INFIX = {And: " , ", Or: " ; ", Imp: " => ", Iff: " <=> "}
_BINDER = {Forall: "(all ", Exists: "(ex "}


def formula_str(x, var_name=Var.__str__) -> str:
    """A formula or term on one line in the native syntax, as in
    `(all X: (p(X) => q(f(X),c)))`, with each variable printed as
    `var_name(variable)`; any other leaf prints as `str` shows it."""
    out = []
    stack = [x]
    while stack:
        x = stack.pop()
        t = type(x)
        if t is str:
            out.append(x)
        elif t is Var:
            out.append(var_name(x))
        elif t in _INFIX:
            out.append("(")
            stack += (")", x.right, _INFIX[t], x.left)
        elif t is Neg:
            out.append("~ ")
            stack.append(x.body)
        elif t in _BINDER:
            out += (_BINDER[t], var_name(x.var), ": ")
            stack += (")", x.body)
        elif t is Atom and x.pred == "=" and len(x.args) == 2:
            stack += (x.args[1], " = ", x.args[0])
        elif t is Atom or t is Fun:
            out.append(x.pred if t is Atom else x.sym)
            if x.args:
                out.append("(")
                args = [y for a in x.args for y in (",", a)][1:]
                stack += (")", *reversed(args))
        else:
            out.append(str(x))
    return "".join(out)


for _cls in (Fun, Atom, Neg, *BINARY, *QUANT):
    _cls.__str__ = formula_str


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

    An empty trail costs nothing to apply: `resolve_term` and
    `resolve_formula` then return their argument itself, and
    `struct_equal` is `==`.
    """

    __slots__ = ("_map", "_trail")

    def __init__(self):
        self._map: dict[int, Term] = {}
        self._trail: list[int] = []

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
        if not self._map:
            return term
        return rewrite_term(term, self.walk)

    def resolve_formula(self, f: Formula) -> Formula:
        """`f` under the current bindings; parts that no binding changes
        are returned as they are, with their kept hashes."""
        if not self._map:
            return f
        return map_terms(f, self.resolve_term)


def rewrite_term(term: Term, step) -> Term:
    """term with `step` applied top-down: to the term, then to each
    argument of every `Fun` it returns, left to right, on an explicit
    stack.  A `Fun` whose arguments all come back as they are is kept,
    with its kept hash."""
    term = step(term)
    if type(term) is not Fun or not term.args:
        return term
    frames = [(term, [])]  # a Fun and its rewritten arguments so far
    while True:
        t, done = frames[-1]
        if len(done) < len(t.args):
            a = step(t.args[len(done)])
            if type(a) is Fun and a.args:
                frames.append((a, []))
            else:
                done.append(a)
            continue
        frames.pop()
        if not all(map(is_, done, t.args)):
            t = Fun(t.sym, tuple(done))
        if not frames:
            return t
        frames[-1][1].append(t)


def occurs_in(var: Var, term: Term, bnd: Bindings) -> bool:
    term = bnd.walk(term)
    if isinstance(term, Var):
        return term.id == var.id
    if not isinstance(term, Fun) or not term.args:
        return False  # a constant, or an opaque leaf (e.g. a prefix variable)
    stack = list(term.args)
    while stack:
        t = bnd.walk(stack.pop())
        if isinstance(t, Var):
            if t.id == var.id:
                return True
        elif isinstance(t, Fun):
            stack += t.args
    return False


def unify_occurs(t1: Term, t2: Term, bnd: Bindings) -> bool:
    """Sound unification with occurs check.

    Extends `bnd` in place and returns True on success; on failure the
    bindings are restored to their state at entry.
    """
    mark = bnd.mark()
    if _unify([(t1, t2)], bnd):
        return True
    bnd.undo_to(mark)
    return False


def _unify(pairs: list, bnd: Bindings) -> bool:
    """Unify each pair in turn, depth first and left to right, on an
    explicit stack; bindings made before a failure stay."""
    todo = pairs[::-1]
    while todo:
        t1, t2 = todo.pop()
        t1 = bnd.walk(t1)
        t2 = bnd.walk(t2)
        if isinstance(t1, Var):
            if isinstance(t2, Var) and t2.id == t1.id:
                continue
            if occurs_in(t1, t2, bnd):
                return False
            bnd.bind(t1, t2)
        elif isinstance(t2, Var):
            if occurs_in(t2, t1, bnd):
                return False
            bnd.bind(t2, t1)
        elif not isinstance(t1, Fun) or not isinstance(t2, Fun):
            # opaque leaves unify only with themselves
            if t1 != t2:
                return False
        elif t1.sym != t2.sym or len(t1.args) != len(t2.args):
            return False
        else:
            todo += reversed(tuple(zip(t1.args, t2.args)))
    return True


def unify_literals(f1: Formula, f2: Formula, bnd: Bindings) -> bool:
    """Unify two literals of the same sign; restores bindings on failure."""
    if isinstance(f1, Atom) and isinstance(f2, Atom):
        if f1.pred != f2.pred or len(f1.args) != len(f2.args):
            return False
        mark = bnd.mark()
        if _unify(list(zip(f1.args, f2.args)), bnd):
            return True
        bnd.undo_to(mark)
        return False
    if isinstance(f1, Neg) and isinstance(f2, Neg):
        if isinstance(f1.body, Atom) and isinstance(f2.body, Atom):
            return unify_literals(f1.body, f2.body, bnd)
    return False


# ============================================================
# Walks over formula structure
# ============================================================


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every subformula of f, f first: pre-order, left before right,
    each quantifier before its body."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, BINARY):
            stack.append(g.right)
            stack.append(g.left)
        elif isinstance(g, (Neg, Forall, Exists)):
            stack.append(g.body)
        elif not isinstance(g, Atom):
            raise TypeError(f"not a formula: {g!r}")


def term_vars(term: Term) -> list:
    """The distinct variables of a term, in first-occurrence order."""
    out: dict = {}
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out[t] = None
        elif isinstance(t, Fun):
            stack.extend(reversed(t.args))
    return list(out)


def signature(f: Formula) -> tuple:
    """(predicates, functions) of f, each a list of distinct (symbol,
    arity) pairs in first-occurrence order, constants included.

    Atoms come in `subformulas` order; within an atom the terms are read
    left to right, each function before its arguments.
    """
    preds: dict = {}
    funs: dict = {}
    for g in subformulas(f):
        if isinstance(g, Atom):
            preds[g.pred, len(g.args)] = None
            stack = list(reversed(g.args))
            while stack:
                t = stack.pop()
                if isinstance(t, Fun):
                    funs[t.sym, len(t.args)] = None
                    stack.extend(reversed(t.args))
    return list(preds), list(funs)


def free_vars(f: Formula) -> set:
    """Variables with at least one occurrence outside any binder's scope."""
    out: set = set()
    stack = [(f, frozenset())]
    while stack:
        g, bound = stack.pop()
        if isinstance(g, Atom):
            out.update(v for a in g.args for v in term_vars(a) if v.id not in bound)
        elif isinstance(g, QUANT):
            stack.append((g.body, bound | {g.var.id}))
        elif isinstance(g, Neg):
            stack.append((g.body, bound))
        elif isinstance(g, BINARY):
            stack += ((g.left, bound), (g.right, bound))
        else:
            raise TypeError(f"not a formula: {g!r}")
    return out


def is_ground(formulas: Iterable[Formula]) -> bool:
    """True iff no variable and no quantifier occurs in the formulas."""
    return not any(
        isinstance(g, QUANT) or (isinstance(g, Atom) and any(map(term_vars, g.args)))
        for f in formulas
        for g in subformulas(f)
    )


def formula_size(f: Formula) -> int:
    """Number of atoms, connectives and quantifiers in f."""
    return sum(1 for _ in subformulas(f))


def map_terms(f: Formula, on_term, shadow: Optional[Var] = None) -> Formula:
    """f with each argument t of every atom replaced by `on_term(t)`,
    visited left before right.  A quantifier over `shadow` is kept as it
    is, body and all.  A part in which nothing changes (each mapped term
    is the one passed in) is returned as it is, with its kept hash.
    """
    if isinstance(f, Atom):
        args = tuple([on_term(a) for a in f.args])
        return f if all(map(is_, args, f.args)) else Atom(f.pred, args)
    if isinstance(f, Neg):
        body = map_terms(f.body, on_term, shadow)
        return f if body is f.body else Neg(body)
    if isinstance(f, BINARY):
        left = map_terms(f.left, on_term, shadow)
        right = map_terms(f.right, on_term, shadow)
        if left is f.left and right is f.right:
            return f
        return type(f)(left, right)
    if isinstance(f, QUANT):
        if shadow is not None and f.var.id == shadow.id:
            return f
        body = map_terms(f.body, on_term, shadow)
        return f if body is f.body else type(f)(f.var, body)
    raise TypeError(f"not a formula: {f!r}")


def substitute(f: Formula, x: Var, t: Term) -> Formula:
    """Replace every free occurrence of x in f by t.

    A binder of x shadows x in its scope.  Assumes f is rectified, so
    t's variables cannot be captured.
    """

    def step(term: Term) -> Term:
        return t if type(term) is Var and term.id == x.id else term

    return map_terms(f, lambda term: rewrite_term(term, step), x)


# ============================================================
# Skolem terms
# ============================================================


def skolem_term(site_id, free_vars_seq: Iterable[Var]) -> Fun:
    """Skolem term for a quantifier site over the branch's free variables.

    Deterministic in its arguments: the same site with the same variable
    list yields the identical term.
    """
    return Fun(f"{SKOLEM_PREFIX}{site_id}", tuple(free_vars_seq))


# ============================================================
# Comparisons
# ============================================================


def struct_equal(f: Formula, g: Formula, bnd: Bindings) -> bool:
    """Syntactic identity of the current instantiations (Prolog's ==).

    With nothing bound this is dataclass equality, which compares
    variables and quantifier binders by id.
    """
    if not bnd._map:
        return f == g

    def tv(todo: list) -> bool:
        """Each pair of terms is equal; an explicit stack."""
        while todo:
            a, b = todo.pop()
            a = bnd.walk(a)
            b = bnd.walk(b)
            if isinstance(a, Var) or isinstance(b, Var):
                if not (isinstance(a, Var) and isinstance(b, Var) and a.id == b.id):
                    return False
            elif a.sym != b.sym or len(a.args) != len(b.args):
                return False
            else:
                todo += zip(a.args, b.args)
        return True

    def go(a: Formula, b: Formula) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, Atom):
            return (
                a.pred == b.pred
                and len(a.args) == len(b.args)
                and tv(list(zip(a.args, b.args)))
            )
        if isinstance(a, Neg):
            return go(a.body, b.body)
        if isinstance(a, BINARY):
            return go(a.left, b.left) and go(a.right, b.right)
        return a.var.id == b.var.id and go(a.body, b.body)

    return go(f, g)
