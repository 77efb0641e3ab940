"""Problem parsing and goal assembly.

Two input formats:

* TPTP fof: `fof(name, role, formula).` with roles axiom, hypothesis,
  lemma (premises) and conjecture; `include('file')` directives are
  resolved against an axiom root directory.
* native: the compact prover syntax with `,` `;` `~` `=>` `<=>` and
  quantifiers `all X:` / `ex X:`.  Precedence (strongest first) is
  `~` `,` `;` `=>` `<=>`; a quantifier's scope extends as far right as
  possible and `=>` associates to the right.

Formulas are rectified while parsing: every quantifier binds a fresh
variable, and a name always refers to the innermost enclosing binder.
Free variable names are universally closed per formula (the usual TPTP
reading), so everything downstream works on closed formulas.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

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


class _Tokens:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        if t[0] != "eof":
            self.i += 1
        return t

    def expect(self, value: str):
        kind, val, line, col = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val!r}", line, col)

    def at(self, value: str) -> bool:
        return self.peek()[1] == value

    def error(self, msg: str):
        _, val, line, col = self.peek()
        raise ParseError(f"{msg} (found {val!r})", line, col)


# ============================================================
# Shared parser state
# ============================================================


class _Parser:
    """Scopes, signature checks and the term syntax of both grammars."""

    def __init__(self, tokens: _Tokens):
        self.t = tokens
        self.scopes: list[dict[str, Var]] = []
        self.free: dict[str, Var] = {}
        self.pred_arity: dict[str, int] = {}
        self.fun_arity: dict[str, int] = {}

    def push_var(self, name: str) -> Var:
        v = fresh_var(name)
        self.scopes.append({name: v})
        return v

    def pop_var(self):
        self.scopes.pop()

    def lookup_var(self, name: str) -> Var:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        if name not in self.free:
            self.free[name] = fresh_var(name)
        return self.free[name]

    def check_arity(self, table: dict, sym: str, n: int, what: str):
        old = table.setdefault(sym, n)
        if old != n:
            line, col = self.t.peek()[2], self.t.peek()[3]
            raise ParseError(
                f"arity clash for {what} {sym!r}: used with {old} and {n} arguments",
                line,
                col,
            )

    def term(self) -> Term:
        kind, val, line, col = self.t.next()
        if kind == "var":
            return self.lookup_var(val)
        if kind == "num":
            return Fun(val, ())
        if kind != "name":
            raise ParseError(f"expected a term, found {val!r}", line, col)
        sym = val.strip("'")
        args = ()
        if self.t.at("("):
            self.t.next()
            parts = [self.term()]
            while self.t.at(","):
                self.t.next()
                parts.append(self.term())
            self.t.expect(")")
            args = tuple(parts)
        if args:
            self.check_arity(self.fun_arity, sym, len(args), "function")
        return Fun(sym, args)

    def close_free(self, f: Formula) -> Formula:
        """Universally close the free variable names of the last formula."""
        for v in reversed(list(self.free.values())):
            f = Forall(v, f)
        self.free = {}
        return f


# ============================================================
# Native syntax
# ============================================================


class _NativeParser(_Parser):
    def formula(self) -> Formula:
        if self.t.at("all") or self.t.at("ex"):
            return self.quantified()
        return self.iff_level()

    def quantified(self) -> Formula:
        kind, val, line, col = self.t.next()
        cls = Forall if val == "all" else Exists
        vkind, vname, vline, vcol = self.t.next()
        if vkind != "var":
            raise ParseError(f"expected a variable after {val!r}", vline, vcol)
        v = self.push_var(vname)
        self.t.expect(":")
        body = self.formula()
        self.pop_var()
        return cls(v, body)

    def iff_level(self) -> Formula:
        left = self.imp_level()
        if self.t.at("<=>"):
            self.t.next()
            return Iff(left, self.iff_level())
        return left

    def imp_level(self) -> Formula:
        left = self.or_level()
        if self.t.at("=>"):
            self.t.next()
            return Imp(left, self.imp_level())
        return left

    def or_level(self) -> Formula:
        left = self.and_level()
        if self.t.at(";"):
            self.t.next()
            return Or(left, self.or_level())
        return left

    def and_level(self) -> Formula:
        left = self.unary()
        if self.t.at(","):
            self.t.next()
            return And(left, self.and_level())
        return left

    def unary(self) -> Formula:
        if self.t.at("~"):
            self.t.next()
            return Neg(self.unary())
        if self.t.at("("):
            self.t.next()
            f = self.formula()
            self.t.expect(")")
            return f
        if self.t.at("all") or self.t.at("ex"):
            return self.quantified()
        return self.atom()

    def atom(self) -> Formula:
        kind, val, line, col = self.t.peek()
        if kind in ("name", "var", "num"):
            left = self.term()
            if self.t.at("="):
                self.t.next()
                right = self.term()
                return Atom(EQ, (left, right))
            if isinstance(left, Fun):
                self.check_arity(self.pred_arity, left.sym, len(left.args), "predicate")
                return Atom(left.sym, left.args)
            raise ParseError("a variable is not a formula", line, col)
        self.t.error("expected an atom")


def parse_native_formula(text: str, close: bool = False) -> Formula:
    p = _NativeParser(_Tokens(text))
    f = p.formula()
    if not p.t.at(""):
        p.t.error("trailing input after formula")
    return p.close_free(f) if close else f


# ============================================================
# TPTP fof syntax
# ============================================================

_PREMISE_ROLES = ("axiom", "hypothesis", "lemma")


class _TptpParser(_Parser):
    def __init__(self, tokens: _Tokens, axiom_root: Optional[Path]):
        super().__init__(tokens)
        self.axiom_root = axiom_root
        self.entries: list[tuple[str, str, Formula]] = []

    def file(self):
        while not self.t.at(""):
            kind, val, line, col = self.t.peek()
            if val == "fof":
                self.fof()
            elif val == "include":
                self.include()
            else:
                raise ParseError(f"expected fof or include, found {val!r}", line, col)
        return self.entries

    def fof(self):
        self.t.expect("fof")
        self.t.expect("(")
        name = self.t.next()[1].strip("'")
        self.t.expect(",")
        _, role, line, col = self.t.next()
        self.t.expect(",")
        f = self.formula()
        f = self.close_free(f)
        self.t.expect(")")
        self.t.expect(".")
        if role not in _PREMISE_ROLES + ("conjecture",):
            raise ParseError(f"unsupported role {role!r}", line, col)
        self.entries.append((name, role, f))

    def include(self):
        self.t.expect("include")
        self.t.expect("(")
        kind, val, line, col = self.t.next()
        self.t.expect(")")
        self.t.expect(".")
        rel = val.strip("'")
        if self.axiom_root is None:
            raise ParseError(f"include({rel!r}) found but no axiom root configured", line, col)
        path = self.axiom_root / rel
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot read include {str(path)!r}: {exc}", line, col)
        sub = _TptpParser(_Tokens(text), self.axiom_root)
        sub.pred_arity = self.pred_arity
        sub.fun_arity = self.fun_arity
        self.entries.extend(sub.file())

    # fof formulas: quantifiers and ~ bind tightest, then & | then => <=>

    def formula(self) -> Formula:
        left = self.unit()
        kind, val, line, col = self.t.peek()
        if val == "&":
            while self.t.at("&"):
                self.t.next()
                left = And(left, self.unit())
            return left
        if val == "|":
            while self.t.at("|"):
                self.t.next()
                left = Or(left, self.unit())
            return left
        if val == "=>":
            self.t.next()
            return Imp(left, self.formula())
        if val == "<=>":
            self.t.next()
            return Iff(left, self.formula())
        if val == "<=":
            self.t.next()
            return Imp(self.formula(), left)
        if val == "<~>":
            self.t.next()
            return Neg(Iff(left, self.formula()))
        return left

    def unit(self) -> Formula:
        kind, val, line, col = self.t.peek()
        if val == "~":
            self.t.next()
            return Neg(self.unit())
        if val in ("!", "?"):
            self.t.next()
            cls = Forall if val == "!" else Exists
            self.t.expect("[")
            names = []
            while True:
                vkind, vname, vline, vcol = self.t.next()
                if vkind != "var":
                    raise ParseError("expected a variable in quantifier list", vline, vcol)
                names.append(vname)
                if self.t.at(","):
                    self.t.next()
                    continue
                break
            self.t.expect("]")
            self.t.expect(":")
            vs = [self.push_var(n) for n in names]
            body = self.unit()
            for _ in names:
                self.pop_var()
            for v in reversed(vs):
                body = cls(v, body)
            return body
        if val == "(":
            self.t.next()
            f = self.formula()
            self.t.expect(")")
            return f
        return self.atom()

    def atom(self) -> Formula:
        kind, val, line, col = self.t.peek()
        if kind in ("name", "var", "num"):
            left = self.term()
            if self.t.at("="):
                self.t.next()
                return Atom(EQ, (left, self.term()))
            if self.t.at("!="):
                self.t.next()
                return Neg(Atom(EQ, (left, self.term())))
            if isinstance(left, Fun):
                self.check_arity(self.pred_arity, left.sym, len(left.args), "predicate")
                return Atom(left.sym, left.args)
            raise ParseError("a variable is not a formula", line, col)
        self.t.error("expected an atom")


# ============================================================
# Problem level
# ============================================================


def formula_uses_equality(f: Formula) -> bool:
    return any(isinstance(g, Atom) and g.pred == EQ for g in subformulas(f))


def parse_problem(
    text, fmt: str = "tptp", name: str = "problem", axiom_root=None
) -> Problem:
    """Parse a problem file's contents into premises and conjecture."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    prob = Problem(name)
    if fmt == "native":
        f = parse_native_formula(text, close=True)
        prob.conjecture = f
    elif fmt == "tptp":
        root = Path(axiom_root) if axiom_root is not None else None
        parser = _TptpParser(_Tokens(text), root)
        for entry_name, role, f in parser.file():
            if role == "conjecture":
                if prob.conjecture is not None:
                    raise ParseError("more than one conjecture")
                prob.conjecture = f
            else:
                prob.axioms.append(f)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    prob.uses_equality = any(
        formula_uses_equality(f)
        for f in prob.axioms + ([prob.conjecture] if prob.conjecture else [])
    )
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
