"""Shared test helpers: formula corpora, comparison and independent oracles."""

from __future__ import annotations

import itertools
import random

from hatprove.oracle import HTInterpretation
from hatprove.terms import BINARY, And, Atom, Exists, Forall, Formula, Fun, Iff, Imp
from hatprove.terms import Neg, Or, Term, Var, fresh_var, signature

# ============================================================
# Propositional formula corpora
# ============================================================


def enumerate_formulas(max_size, atom_names=("p", "q")):
    """Every formula over and/or/imp/neg with at most max_size nodes."""
    atoms = [Atom(a) for a in atom_names]

    def gen(size):
        if size == 1:
            yield from atoms
            return
        for f in gen(size - 1):
            yield Neg(f)
        for ls in range(1, size - 1):
            for left in gen(ls):
                for right in gen(size - 1 - ls):
                    yield And(left, right)
                    yield Or(left, right)
                    yield Imp(left, right)

    for size in range(1, max_size + 1):
        yield from gen(size)


def horn(n, gap=None):
    """The Horn chain `(p0 , (p0 => p1) , ... , (p{n-1} => pn)) => pn`
    in native syntax; `gap` drops one link."""
    links = [f"(p{i} => p{i + 1})" for i in range(n) if i != gap]
    return f"(p0 , {' , '.join(links)}) => p{n}"


def schwichtenberg(n):
    """`(pn , (pn => (pn => p{n-1})) , ... , (p1 => (p1 => p0))) => p0`
    in native syntax; its sequents recur all through a proof."""
    links = [f"(p{i} => (p{i} => p{i - 1}))" for i in range(n, 0, -1)]
    return f"(p{n} , {' , '.join(links)}) => p0"


def random_formula(rng: random.Random, size: int, atom_names=("p", "q", "r")):
    if size <= 1:
        return Atom(rng.choice(atom_names))
    if size == 2 or rng.random() < 0.25:
        return Neg(random_formula(rng, size - 1, atom_names))
    ls = rng.randint(1, size - 2)
    left = random_formula(rng, ls, atom_names)
    right = random_formula(rng, size - 1 - ls, atom_names)
    return rng.choice([And, Or, Imp])(left, right)


def random_fo_formula(rng: random.Random, size: int, bound: tuple = ()):
    """A closed, function-free formula with about `size` nodes over
    unary p, q and nullary r; quantifiers bind fresh variables."""
    if size <= 1:
        pred = rng.choice(("p", "q", "r")) if bound else "r"
        return Atom(pred, (rng.choice(bound),) if pred != "r" else ())
    if size == 2 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Neg(random_fo_formula(rng, size - 1, bound))
        x = fresh_var(f"X{len(bound) + 1}")
        body = random_fo_formula(rng, size - 1, bound + (x,))
        return rng.choice([Forall, Exists])(x, body)
    ls = rng.randint(1, size - 2)
    left = random_fo_formula(rng, ls, bound)
    right = random_fo_formula(rng, size - 1 - ls, bound)
    return rng.choice([And, Or, Imp])(left, right)


# ============================================================
# Formula comparison
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


# ============================================================
# Pointwise first-order HT evaluator
# ============================================================
#
# Independent of the production oracle's bit masks: one model, one
# world, one connective at a time, written from the Kripke semantics of
# the two-world frame here <= there over a constant domain.


def ht_holds(f, model: HTInterpretation, world: str = "here", env=None) -> bool:
    """Truth of a closed, function-free formula at `world` of `model`;
    `env` maps bound variable ids and constant symbols to elements."""
    env = dict(model.constants) if env is None else env
    if isinstance(f, Atom):
        args = tuple(env[a.id] if isinstance(a, Var) else env[a.sym] for a in f.args)
        return (f.pred, args) in (model.here if world == "here" else model.there)
    if isinstance(f, And):
        return ht_holds(f.left, model, world, env) and ht_holds(f.right, model, world, env)
    if isinstance(f, Or):
        return ht_holds(f.left, model, world, env) or ht_holds(f.right, model, world, env)
    # implication and negation at `here` look at both worlds
    worlds = ("there",) if world == "there" else ("here", "there")
    if isinstance(f, Imp):
        return all(
            not ht_holds(f.left, model, w, env) or ht_holds(f.right, model, w, env)
            for w in worlds
        )
    if isinstance(f, Iff):
        return ht_holds(Imp(f.left, f.right), model, world, env) and ht_holds(
            Imp(f.right, f.left), model, world, env
        )
    if isinstance(f, Neg):
        return not any(ht_holds(f.body, model, w, env) for w in worlds)
    test = all if isinstance(f, Forall) else any
    return test(
        ht_holds(f.body, model, world, {**env, f.var.id: d}) for d in range(model.size)
    )


def all_models(f, size: int = 1):
    """Every HT model of the closed, function-free f on {0, ..., size-1}:
    constant assignments first, then per sorted ground atom 0 = absent,
    1 = there only, 2 = both worlds, the first atom varying slowest."""
    preds, funs = signature(f)
    consts = sorted(c for c, _ in funs)
    atoms = sorted(
        (p, args) for p, n in preds for args in itertools.product(range(size), repeat=n)
    )
    for values in itertools.product(range(size), repeat=len(consts)):
        for digits in itertools.product((0, 1, 2), repeat=len(atoms)):
            yield HTInterpretation(
                frozenset(a for a, v in zip(atoms, digits) if v == 2),
                frozenset(a for a, v in zip(atoms, digits) if v),
                size,
                tuple(zip(consts, values)),
            )


# ============================================================
# Brute-force prefix unification oracle
# ============================================================
#
# Independent of the production solver: strings are tuples whose
# elements are plain hashable symbols; a symbol in `variables` may take
# any (possibly empty) segment.  Enumerates aligned unifiers by
# splitting: equal heads cancel, a variable head absorbs a prefix of
# the other side.  Solutions are canonical dicts mapping bound
# variables to fully expanded tuples.


def _expand(s, sub):
    out = []
    for x in s:
        if x in sub:
            out.extend(_expand(sub[x], sub))
        else:
            out.append(x)
    return tuple(out)


def _occurs_b(v, seg, sub):
    return v in _expand(seg, sub)


def brute_solutions(pairs, variables):
    """All aligned unifiers of the constraint pairs, deduplicated."""
    solutions = []

    def solve(work, sub):
        if not work:
            canon = frozenset((v, _expand((v,), sub)) for v in sub)
            if canon not in seen:
                seen.add(canon)
                solutions.append(dict(sub))
            return
        (s, t), rest = work[0], work[1:]
        s, t = _expand(s, sub), _expand(t, sub)
        if not s and not t:
            solve(rest, sub)
            return
        if not s or not t:
            leftover = s or t
            if all(x in variables for x in leftover):
                new = dict(sub)
                for x in leftover:
                    if x not in new:
                        new[x] = ()
                solve(rest, new)
            return
        a, b = s[0], t[0]
        if a == b:
            solve([(s[1:], t[1:])] + rest, sub)
            return
        if a in variables:
            for k in range(len(t) + 1):
                seg = t[:k]
                if _occurs_b(a, seg, sub):
                    break
                solve([(s[1:], t[k:])] + rest, {**sub, a: seg})
        if b in variables:
            for k in range(len(s) + 1):
                seg = s[:k]
                if _occurs_b(b, seg, sub):
                    break
                solve([(s[k:], t[1:])] + rest, {**sub, b: seg})

    seen: set = set()
    solve(list(pairs), {})
    return solutions


def string_matches(pattern, target, variables, theta=None):
    """Can pattern become target by substituting its variables?"""
    theta = dict(theta or {})

    def go(p, t, th):
        p = _expand(p, th)
        if not p and not t:
            yield th
            return
        if not p:
            return
        a = p[0]
        if a in variables and a not in th:
            for k in range(len(t) + 1):
                yield from go(p[1:], t[k:], {**th, a: t[:k]})
            return
        if t and a == t[0]:
            yield from go(p[1:], t[1:], th)

    return next(go(tuple(pattern), tuple(target), theta), None) is not None


def solution_instance_of(general, specific, variables):
    """specific = theta composed with general, for some theta."""

    def go(items, theta):
        if not items:
            yield theta
            return
        v, rest = items[0], items[1:]
        gval = _expand(general.get(v, (v,)), general)
        sval = _expand(specific.get(v, (v,)), specific)

        def match(p, t, th):
            p = list(p)
            if not p and not t:
                yield th
                return
            if not p:
                return
            a = p[0]
            if a in variables:
                if a in th:
                    val = th[a]
                    if tuple(t[: len(val)]) == tuple(val):
                        yield from match(p[1:], t[len(val):], th)
                    return
                for k in range(len(t) + 1):
                    yield from match(p[1:], t[k:], {**th, a: tuple(t[:k])})
                return
            if t and a == t[0]:
                yield from match(p[1:], t[1:], th)

        for th in match(gval, sval, theta):
            yield from go(rest, th)

    domain = sorted(set(general) | set(specific))
    return next(go(domain, {}), None) is not None
