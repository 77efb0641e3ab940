"""Problem parsing and goal assembly.

Two input formats, read by one reader:

* TPTP fof: `fof(name, role, formula).` with roles axiom, hypothesis,
  lemma (premises) and conjecture; `include('file')` directives are
  read in place, resolved against an axiom root directory.  `&` and
  `|` chain to the left and do not mix; `=>` `<=` `<=>` `<~>` `~|`
  `~&` take a unit on their left and a formula on their right; `~`,
  `![X,...]:` and `?[X,...]:` take a unit; atoms include `=` and `!=`.
* native: the compact prover syntax with `,` `;` `~` `=>` `<=>` and
  quantifiers `all X:` / `ex X:`.  Precedence (strongest first) is
  `~` `,` `;` `=>` `<=>`; binary connectives associate to the right,
  and a quantifier's scope extends as far right as possible.

`_Parser.formula` is one precedence loop on an explicit stack, driven
by a table of binary connectives per syntax, and terms are read with
an explicit stack too, so input depth is bounded by memory, not by the
recursion limit.  Every predicate and function symbol, constants
included, keeps one arity.

Formulas are rectified while parsing: every quantifier binds a fresh
variable, and a name always refers to the innermost enclosing binder.
Free variable names are universally closed per formula (the usual TPTP
reading), so everything downstream works on closed formulas.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .terms import (
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    Fun,
    Iff,
    Imp,
    Neg,
    Or,
    QUANT,
    Term,
    Var,
    formula_str,
    fresh_var,
    signature,
    subformulas,
    term_vars,
)

EQ = "="


class ParseError(ValueError):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{msg} at line {line}, column {col}" if line else msg)
        self.line = line
        self.col = col


@dataclass
class Problem:
    name: str
    axioms: list = field(default_factory=list)
    conjecture: Optional[Formula] = None
    uses_equality: bool = False


# ============================================================
# Tokenizer
# ============================================================

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|%[^\n]*|/\*.*?\*/)
  | (?P<op><=>|<~>|=>|<=|!=|~\||~&|[(),.:;~!?\[\]=&|])
  | (?P<name>[a-z][A-Za-z0-9_]*|\$[a-z]+|'[^']*')
  | (?P<var>[A-Z_][A-Za-z0-9_]*)
  | (?P<num>\d+)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        value = m.group()
        if value.startswith("$"):
            # $true, $false and the other defined words have no formula
            # constant to stand for; read as atoms they change verdicts
            raise ParseError(f"unsupported TPTP word {value!r}", line, pos - line_start + 1)
        if kind != "ws":
            tokens.append((kind, value, line, pos - line_start + 1))
        line += value.count("\n")
        if "\n" in value:
            line_start = pos + value.rindex("\n") + 1
        pos = m.end()
    tokens.append(("eof", "", line, pos - line_start + 1))
    return tokens


# ============================================================
# Syntax tables
# ============================================================


class _Conn(NamedTuple):
    """A binary connective.  It applies where the operand being read may
    contain connectives of its `power`.  Its right operand may contain
    connectives of its own power, so it associates to the right, unless
    it `chains`: then the right operand is read one power higher and the
    chain grows to the left."""

    power: int
    chains: bool
    build: Callable[[Formula, Formula], Formula]


class _Syntax(NamedTuple):
    binary: dict  # token -> _Conn
    quantifiers: dict  # token -> Forall or Exists
    var_list: bool  # a quantifier binds a bracketed list of variables
    scope: int  # the power a quantifier's operand is read at
    equalities: tuple  # `=`, and `!=` for a negated equality


# Above every power: an operand read at it is a unit, with no binary
# connective outside parentheses.
_UNIT = 10

_NATIVE = _Syntax(
    {",": _Conn(4, False, And), ";": _Conn(3, False, Or),
     "=>": _Conn(2, False, Imp), "<=>": _Conn(1, False, Iff)},
    {"all": Forall, "ex": Exists}, False, 0, ("=",),
)

# One power for all: a connective's left operand is then a unit or, for
# `&` and `|`, a chain of the same connective.
_TPTP = _Syntax(
    {"&": _Conn(1, True, And), "|": _Conn(1, True, Or),
     "=>": _Conn(1, False, Imp), "<=": _Conn(1, False, lambda a, b: Imp(b, a)),
     "<=>": _Conn(1, False, Iff), "<~>": _Conn(1, False, lambda a, b: Neg(Iff(a, b))),
     "~|": _Conn(1, False, lambda a, b: Neg(Or(a, b))),
     "~&": _Conn(1, False, lambda a, b: Neg(And(a, b)))},
    {"!": Forall, "?": Exists}, True, _UNIT, ("=", "!="),
)

_SYNTAXES = {"native": _NATIVE, "tptp": _TPTP}


# ============================================================
# Reader
# ============================================================


class _Parser:
    """The reader of both syntaxes: tokens, the variables in scope, the
    arities seen so far and whether an equality occurred."""

    def __init__(self, text: str, syntax: _Syntax):
        self.toks = _tokenize(text)
        self.i = 0
        self.syntax = syntax
        self.bound: dict[str, list[Var]] = {}  # name -> binders, innermost last
        self.free: dict[str, Var] = {}
        self.pred_arity: dict[str, int] = {}
        self.fun_arity: dict[str, int] = {}
        self.uses_equality = False

    def next(self):
        t = self.toks[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def at(self, value: str) -> bool:
        return self.toks[self.i][1] == value

    def expect(self, value: str):
        kind, val, line, col = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val!r}", line, col)

    def lookup_var(self, name: str) -> Var:
        binders = self.bound.get(name)
        if binders:
            return binders[-1]
        if name not in self.free:
            self.free[name] = fresh_var(name)
        return self.free[name]

    def check_arity(self, table: dict, sym: str, n: int, what: str, line: int, col: int):
        old = table.setdefault(sym, n)
        if old != n:
            msg = f"arity clash for {what} {sym!r}: used with {old} and {n} arguments"
            raise ParseError(msg, line, col)

    def formula(self) -> Formula:
        """Read one formula with a precedence loop on an explicit stack.

        `~`, a quantifier, `(` and a binary connective with its left
        operand each open a frame, which keeps the power of the operand
        around it and the function that closes it.  A connective applies
        if the current operand may contain its power and its left
        operand is a unit, has a main connective that binds tighter, or,
        for a chaining connective, is a chain of it; where none applies,
        the top frame closes.
        """
        binary = self.syntax.binary
        toks = self.toks
        stack = []  # (power outside the frame, close, main connective or None)
        power = 0
        while True:
            val = toks[self.i][1]
            if val == "~":
                self.i += 1
                stack.append((power, Neg, None))
                power = _UNIT
            elif val == "(":
                self.i += 1
                stack.append((power, self.close_paren, None))
                power = 0
            elif val in self.syntax.quantifiers:
                stack.append((power, self.quantifier(), None))
                power = self.syntax.scope
            else:
                f = self.atom()
                main = None  # the main connective of f; None for a unit
                while True:
                    conn = binary.get(toks[self.i][1])
                    if (
                        conn is not None
                        and conn.power >= power
                        and (main is None or main.power > conn.power or (main is conn and conn.chains))
                    ):
                        self.i += 1
                        stack.append((power, partial(conn.build, f), conn))
                        power = conn.power + conn.chains
                        break
                    if not stack:
                        return f
                    power, close, main = stack.pop()
                    f = close(f)

    def close_paren(self, f: Formula) -> Formula:
        self.expect(")")
        return f

    def quantifier(self) -> Callable[[Formula], Formula]:
        """Read a quantifier and the variables it binds, which stay in
        scope until the returned function closes its frame."""
        quant = self.next()[1]
        cls = self.syntax.quantifiers[quant]
        var_list = self.syntax.var_list
        if var_list:
            self.expect("[")
        vs = []
        while True:
            kind, name, line, col = self.next()
            if kind != "var":
                raise ParseError(f"expected a variable after {quant!r}", line, col)
            vs.append(fresh_var(name))
            if not (var_list and self.at(",")):
                break
            self.i += 1
        if var_list:
            self.expect("]")
        self.expect(":")
        for v in vs:
            self.bound.setdefault(v.name, []).append(v)

        def close(f: Formula) -> Formula:
            for v in reversed(vs):
                self.bound[v.name].pop()
                f = cls(v, f)
            return f

        return close

    def atom(self) -> Formula:
        kind, val, line, col = self.toks[self.i]
        if kind not in ("name", "var", "num"):
            raise ParseError(f"expected an atom (found {val!r})", line, col)
        left = self.term(head=False)
        eq = self.toks[self.i][1]
        if eq in self.syntax.equalities:
            self.i += 1
            if type(left) is Fun:
                self.check_arity(self.fun_arity, left.sym, len(left.args), "function", line, col)
            self.uses_equality = True
            f = Atom(EQ, (left, self.term()))
            return Neg(f) if eq == "!=" else f
        if type(left) is Var:
            raise ParseError("a variable is not a formula", line, col)
        self.check_arity(self.pred_arity, left.sym, len(left.args), "predicate", line, col)
        return Atom(left.sym, left.args)

    def term(self, head: bool = True) -> Term:
        """Read a term with an explicit stack of open argument lists and
        check the arity of each function symbol in it, of the outermost
        one only if `head`."""
        stack = []  # (symbol, line, column, arguments so far)
        while True:
            kind, val, line, col = self.next()
            if kind == "var":
                t = self.lookup_var(val)
            elif kind == "name" and self.at("("):
                self.i += 1
                stack.append((val.strip("'"), line, col, []))
                continue
            elif kind == "name" or kind == "num":
                t = Fun(val.strip("'"), ())
            else:
                raise ParseError(f"expected a term, found {val!r}", line, col)
            # t is complete: add it to its argument list and close each
            # list it completes
            while True:
                if type(t) is Fun and (head or stack):
                    self.check_arity(self.fun_arity, t.sym, len(t.args), "function", line, col)
                if not stack:
                    return t
                stack[-1][3].append(t)
                if self.at(","):
                    self.i += 1
                    break
                self.expect(")")
                sym, line, col, args = stack.pop()
                t = Fun(sym, tuple(args))

    def close_free(self, f: Formula) -> Formula:
        """Universally close the free variable names of the last formula."""
        for v in reversed(list(self.free.values())):
            f = Forall(v, f)
        self.free = {}
        return f

    def sole_formula(self, close: bool) -> Formula:
        """The input as one formula, universally closed if `close`."""
        f = self.formula()
        kind, val, line, col = self.toks[self.i]
        if kind != "eof":
            raise ParseError(f"trailing input after formula (found {val!r})", line, col)
        return self.close_free(f) if close else f

    def tptp_units(self, prob: Problem, axiom_root: Optional[Path]):
        """Read `fof` and `include` units into `prob`.  An included file
        is read in place, by this parser, so arities and equality are
        checked across files."""
        outer = []  # (resolved path, tokens, position) per open include
        while True:
            kind, val, line, col = self.next()
            if val == "fof":
                self.expect("(")
                self.next()  # the name
                self.expect(",")
                _, role, line, col = self.next()
                self.expect(",")
                f = self.close_free(self.formula())
                self.expect(")")
                self.expect(".")
                if role == "conjecture":
                    if prob.conjecture is not None:
                        raise ParseError("more than one conjecture")
                    prob.conjecture = f
                elif role in ("axiom", "hypothesis", "lemma"):
                    prob.axioms.append(f)
                else:
                    raise ParseError(f"unsupported role {role!r}", line, col)
            elif val == "include":
                self.expect("(")
                _, rel, line, col = self.next()
                self.expect(")")
                self.expect(".")
                rel = rel.strip("'")
                if axiom_root is None:
                    raise ParseError(f"include({rel!r}) found but no axiom root configured", line, col)
                path = axiom_root / rel
                try:
                    text = path.read_text(encoding="utf-8")
                except OSError as exc:
                    raise ParseError(f"cannot read include {str(path)!r}: {exc}", line, col)
                key = path.resolve()
                if key in [o[0] for o in outer]:
                    raise ParseError(f"include {str(path)!r} includes itself", line, col)
                outer.append((key, self.toks, self.i))
                self.toks, self.i = _tokenize(text), 0
            elif kind == "eof":
                if not outer:
                    return
                _, self.toks, self.i = outer.pop()
            else:
                raise ParseError(f"expected fof or include, found {val!r}", line, col)


def parse_native_formula(text: str, close: bool = False) -> Formula:
    return _Parser(text, _NATIVE).sole_formula(close)


# ============================================================
# Problem level
# ============================================================


def formula_uses_equality(f: Formula) -> bool:
    return any(isinstance(g, Atom) and g.pred == EQ for g in subformulas(f))


def parse_problem(
    text, fmt: str = "tptp", name: str = "problem", axiom_root=None
) -> Problem:
    """Parse a problem file's contents into premises and conjecture."""
    if fmt not in _SYNTAXES:
        raise ValueError(f"unknown format {fmt!r}")
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    prob = Problem(name)
    parser = _Parser(text, _SYNTAXES[fmt])
    if fmt == "native":
        prob.conjecture = parser.sole_formula(close=True)
    else:
        parser.tptp_units(prob, Path(axiom_root) if axiom_root is not None else None)
    prob.uses_equality = parser.uses_equality
    return prob


def conjoin(formulas) -> Formula:
    out = formulas[-1]
    for f in reversed(formulas[:-1]):
        out = And(f, out)
    return out


def assemble_goal(prob: Problem) -> Formula:
    """The single formula whose HT validity decides the problem.

    With a conjecture C: (A1 , ... , An) => C.  Without one, the axioms
    must be unsatisfiable, read here as provability of ~(A1 , ... , An).
    """
    if prob.conjecture is None:
        if not prob.axioms:
            raise ValueError(f"problem {prob.name!r} has no formulas")
        return Neg(conjoin(prob.axioms))
    if not prob.axioms:
        return prob.conjecture
    return Imp(conjoin(prob.axioms), prob.conjecture)


# ============================================================
# Equality axioms
# ============================================================


def equality_axioms(f: Formula) -> list:
    """Reflexivity, symmetry, transitivity and per-position congruence:
    for each function of f, then each predicate other than `=`, in the
    order of `signature`."""
    x = fresh_var("X")
    y = fresh_var("Y")
    z = fresh_var("Z")
    eq = lambda a, b: Atom(EQ, (a, b))
    axioms = [
        Forall(x, eq(x, x)),
        Forall(x, Forall(y, Imp(eq(x, y), eq(y, x)))),
        Forall(x, Forall(y, Forall(z, Imp(And(eq(x, y), eq(y, z)), eq(x, z))))),
    ]
    preds, funs = signature(f)
    # (build, relate): f(xs) = f(ys) for a function, p(xs) => p(ys) for a predicate
    shapes = [(Fun, eq, s, n) for s, n in funs]
    shapes += [(Atom, Imp, s, n) for s, n in preds if s != EQ]
    for build, relate, sym, arity in shapes:
        for i in range(arity):
            xs = [fresh_var(f"X{k + 1}") for k in range(arity)]
            w = fresh_var("Y")
            ys = list(xs)
            ys[i] = w
            body = Imp(eq(xs[i], w), relate(build(sym, tuple(xs)), build(sym, tuple(ys))))
            for v in reversed(xs + [w]):
                body = Forall(v, body)
            axioms.append(body)
    return axioms


def add_equality_axioms(f: Formula) -> Formula:
    """Wrap the goal with equality axioms when `=` occurs, else identity."""
    if not formula_uses_equality(f):
        return f
    return Imp(conjoin(equality_axioms(f)), f)


# ============================================================
# Printing (native syntax)
# ============================================================


def to_native(f: Formula) -> str:
    """Print a formula in the native syntax; parseable back."""
    names = _display_names(f)
    return formula_str(f, lambda v: names[v.id])


def _display_names(f: Formula) -> dict:
    """One valid, unambiguous display name per variable id."""
    hints: dict[int, str] = {}  # id -> name hint, in first-occurrence order
    for g in subformulas(f):
        if isinstance(g, QUANT):
            hints.setdefault(g.var.id, g.var.name)
        elif isinstance(g, Atom):
            for a in g.args:
                for v in term_vars(a):
                    hints.setdefault(v.id, v.name)
    used: set[str] = set()
    names: dict[int, str] = {}
    for vid, base in hints.items():
        if not re.fullmatch(r"[A-Z_][A-Za-z0-9_]*", base):
            base = "V"
        cand = base
        k = vid
        while cand in used:
            cand = f"{base}_{k}"
            k += 1
        used.add(cand)
        names[vid] = cand
    return names
