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

A file is read into its tokens by one regex scan, with no positions:
the line and column of a `ParseError` are found by scanning the text
again.  `_Parser.formula` is one precedence loop on an explicit stack,
driven by a table of binary connectives per syntax, and terms are read
with an explicit stack too, so input depth is bounded by memory, not by
the recursion limit.  Every predicate and function symbol, constants
included, keeps one arity.

Formulas are rectified while parsing: every quantifier binds a fresh
variable, and a name always refers to the innermost enclosing binder.
Free variable names are universally closed per formula (the usual TPTP
reading), so everything downstream works on closed formulas.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice
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

_TOKEN = (
    r"<=>|<~>|=>|<=|!=|~\||~&|[(),.:;~!?\[\]=&|]"
    r"|[a-z][A-Za-z0-9_]*|'[^']*'|[A-Z_][A-Za-z0-9_]*|\d+"
)
_TOKEN_RE = re.compile(_TOKEN)
# Each match is the whitespace before a comment, a token (the group) or
# the end of the text; where no token starts, the rest of the text is one
# match, in the group, so the scan skips no character.
_SCAN_RE = re.compile(rf"\s*(?:%[^\n]*|/\*.*?\*/|({_TOKEN}|.+)|\Z)", re.DOTALL)
_VAR = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ_")  # what a variable starts with
_NAME = frozenset("abcdefghijklmnopqrstuvwxyz'")  # what a name starts with


# ============================================================
# Syntax tables
# ============================================================


class _Conn:
    """A binary connective.  It applies where the operand being read may
    contain connectives of its `power`.  Its right operand may contain
    connectives of its own power, so it associates to the right, unless
    it `chains`: then the right operand is read one power higher and the
    chain grows to the left."""

    __slots__ = ("power", "chains", "build")  # faster to read than a NamedTuple's

    def __init__(self, power: int, chains: bool, build: Callable[[Formula, Formula], Formula]):
        self.power, self.chains, self.build = power, chains, build


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
    """The reader of both syntaxes: the current file's text and tokens, the
    variables in scope, the arities seen and whether `=` occurred."""

    def __init__(self, text: str, syntax: _Syntax):
        self.read(text)
        self.syntax = syntax
        self.bound: dict[str, list[Var]] = {}  # name -> binders, innermost last
        self.free: dict[str, Var] = {}
        self.pred_arity: dict[str, int] = {}
        self.fun_arity: dict[str, int] = {}
        self.uses_equality = False

    def read(self, text: str):
        """Make `text` the current file: its tokens, then "" for its end."""
        self.text, self.i = text, 0
        self.toks = list(filter(None, _SCAN_RE.findall(text)))
        if self.toks and not _TOKEN_RE.fullmatch(self.toks[-1]):
            # $true, $false and the other defined words have no formula
            # constant to stand for; read as atoms they change verdicts
            bad = self.toks[-1]
            word = re.match(r"\$[a-z]+", bad)
            msg = f"unsupported TPTP word {word[0]!r}" if word else f"unexpected character {bad[0]!r}"
            raise self.error(msg, len(self.toks) - 1)
        self.toks.append("")

    def error(self, msg: str, k: int) -> ParseError:
        """An error at token `k` of the current file, found by scanning it again."""
        starts = (m.start(1) for m in _SCAN_RE.finditer(self.text) if m.lastindex)
        pos = next(islice(starts, k, None), len(self.text))
        line, col = self.text.count("\n", 0, pos) + 1, pos - self.text.rfind("\n", 0, pos)
        return ParseError(msg, line, col)

    def next(self) -> str:
        val = self.toks[self.i]
        self.i += bool(val)  # never past the end
        return val

    def expect(self, value: str):
        if self.toks[self.i] != value:
            raise self.error(f"expected {value!r}, found {self.toks[self.i]!r}", self.i)
        self.i += 1

    def lookup_var(self, name: str) -> Var:
        binders = self.bound.get(name)
        if binders:
            return binders[-1]
        if name not in self.free:
            self.free[name] = fresh_var(name)
        return self.free[name]

    def check_arity(self, table: dict, sym: str, n: int, what: str, k: int):
        old = table.setdefault(sym, n)
        if old != n:
            msg = f"arity clash for {what} {sym!r}: used with {old} and {n} arguments"
            raise self.error(msg, k)

    def formula(self) -> Formula:
        """Read one formula with a precedence loop on an explicit stack.

        `~`, a quantifier, `(` and a binary connective with its left
        operand each open a frame, which keeps the power of the operand
        around it and what closes it: `Neg`, the quantifier's function,
        `)`, or the connective and its left operand.  A connective
        applies if the current operand may contain its power and its
        left operand is a unit, has a main connective that binds
        tighter, or, for a chaining connective, is a chain of it; where
        none applies, the top frame closes.  A lowercase name followed
        by neither `(` nor an equality is an atom, read without building
        a term.
        """
        syntax, toks, i = self.syntax, self.toks, self.i
        connective, quantifiers = syntax.binary.get, syntax.quantifiers
        not_atom = {"(", *syntax.equalities}  # after a symbol that is not an atom
        arity = self.pred_arity.setdefault
        stack, power = [], 0  # (outer power, connective or None, left operand or closer)
        push, pop = stack.append, stack.pop
        while True:
            val = toks[i]
            if "a" <= val < "{" and toks[i + 1] not in not_atom and val not in quantifiers:
                if arity(val, 0):
                    self.check_arity(self.pred_arity, val, 0, "predicate", i)
                f = Atom(val)
                i += 1
            elif val == "~" or val == "(":
                i += 1
                push((power, None, Neg if val == "~" else None))
                power = _UNIT if val == "~" else 0
                continue
            else:
                self.i = i
                if val in quantifiers:
                    push((power, None, self.quantifier()))
                    i, power = self.i, syntax.scope
                    continue
                f = self.atom()
                i = self.i
            main = None  # the main connective of f; None for a unit
            conn = connective(toks[i])
            while True:
                if (
                    conn is not None
                    and conn.power >= power
                    and (main is None or main.power > conn.power or (main is conn and conn.chains))
                ):
                    i += 1
                    push((power, conn, f))
                    power = conn.power + conn.chains
                    break
                if not stack:
                    self.i = i
                    return f
                power, main, left = pop()
                if main is not None:
                    f = main.build(left, f)
                elif left is not None:
                    f = left(f)
                elif toks[i] == ")":
                    i += 1
                    conn = connective(toks[i])
                else:
                    raise self.error(f"expected ')', found {toks[i]!r}", i)

    def quantifier(self) -> Callable[[Formula], Formula]:
        """Read a quantifier and the variables it binds, which stay in
        scope until the returned function closes its frame."""
        quant = self.next()
        cls = self.syntax.quantifiers[quant]
        var_list = self.syntax.var_list
        if var_list:
            self.expect("[")
        vs = []
        while True:
            k, name = self.i, self.next()
            if name[:1] not in _VAR:
                raise self.error(f"expected a variable after {quant!r}", k)
            vs.append(fresh_var(name))
            if not (var_list and self.toks[self.i] == ","):
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
        k = self.i
        val = self.toks[k]
        if not (val[:1] in _NAME or val[:1] in _VAR or val[:1].isdecimal()):
            raise self.error(f"expected an atom (found {val!r})", k)
        left = self.term(head=False)
        eq = self.toks[self.i]
        if eq in self.syntax.equalities:
            self.i += 1
            if type(left) is Fun:
                self.check_arity(self.fun_arity, left.sym, len(left.args), "function", k)
            self.uses_equality = True
            f = Atom(EQ, (left, self.term()))
            return Neg(f) if eq == "!=" else f
        if type(left) is Var:
            raise self.error("a variable is not a formula", k)
        self.check_arity(self.pred_arity, left.sym, len(left.args), "predicate", k)
        return Atom(left.sym, left.args)

    def term(self, head: bool = True) -> Term:
        """Read a term with an explicit stack of open argument lists and
        check the arity of each function symbol in it, of the outermost
        one only if `head`."""
        stack = []  # (symbol, index of its token, arguments so far)
        while True:
            k, val = self.i, self.next()
            if val[:1] in _VAR:
                t = self.lookup_var(val)
            elif val[:1] in _NAME and self.toks[self.i] == "(":
                self.i += 1
                stack.append((val.strip("'"), k, []))
                continue
            elif val[:1] in _NAME or val[:1].isdecimal():
                t = Fun(val.strip("'"), ())
            else:
                raise self.error(f"expected a term, found {val!r}", k)
            # t is complete: add it to its argument list and close each
            # list it completes
            while True:
                if type(t) is Fun and (head or stack):
                    self.check_arity(self.fun_arity, t.sym, len(t.args), "function", k)
                if not stack:
                    return t
                stack[-1][2].append(t)
                if self.toks[self.i] == ",":
                    self.i += 1
                    break
                self.expect(")")
                sym, k, args = stack.pop()
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
        if self.toks[self.i]:
            raise self.error(f"trailing input after formula (found {self.toks[self.i]!r})", self.i)
        return self.close_free(f) if close else f

    def tptp_units(self, prob: Problem, axiom_root: Optional[Path]):
        """Read `fof` and `include` units into `prob`.  An included file
        is read in place, by this parser, so arities and equality are
        checked across files."""
        outer = []  # (resolved path, text, tokens, position) per open include
        while True:
            val = self.next()
            if val == "fof":
                self.expect("(")
                self.next()  # the name
                self.expect(",")
                k, role = self.i, self.next()
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
                    raise self.error(f"unsupported role {role!r}", k)
            elif val == "include":
                self.expect("(")
                k, rel = self.i, self.next().strip("'")
                self.expect(")")
                self.expect(".")
                if axiom_root is None:
                    raise self.error(f"include({rel!r}) found but no axiom root configured", k)
                path = axiom_root / rel
                try:
                    text = path.read_text(encoding="utf-8")
                except OSError as exc:
                    raise self.error(f"cannot read include {str(path)!r}: {exc}", k)
                key = path.resolve()
                if key in [o[0] for o in outer]:
                    raise self.error(f"include {str(path)!r} includes itself", k)
                outer.append((key, self.text, self.toks, self.i))
                self.read(text)
            elif not val:
                if not outer:
                    return
                _, self.text, self.toks, self.i = outer.pop()
            else:
                raise self.error(f"expected fof or include, found {val!r}", self.i - 1)


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
