"""Prefix (world-path string) unification.

A prefix substitution maps prefix variables to possibly empty strings
of prefix symbols.  Unifying two prefixes means making them equal as
strings.  The solver enumerates aligned unifiers: a variable at the
head of one string absorbs a segment of the other (possibly empty),
equal heads cancel, and distinct constants clash.  Constants may carry
term and prefix-variable dependencies; matching two constants unifies
their term arguments under the shared term bindings and turns
prefix-variable arguments into further string constraints, and the
occurs check looks through constant arguments.

Every solution yielded has been verified by application: both strings
of every constraint expand to the same symbol sequence.  Prefix
variables bind on their own `terms.Bindings` trail, next to the one for
term variables.

This module only runs the unifier and applies its bindings (`expand`,
`resolved_string`, `constraints_signature`); the variables of a prefix
and of a constant's arguments are read with `matrix.leaves`.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional

from .matrix import PConst, PVar, leaves
from .terms import Bindings, Var, unify_occurs
from .verdicts import SearchTimeout


def expand(prefix, pb: Bindings) -> tuple:
    """Flatten bound prefix variables into their strings."""
    out = []
    for s in prefix:
        if isinstance(s, PVar):
            val = pb.lookup(s)
            if val is None:
                out.append(s)
            else:
                out.extend(expand(val, pb))
        else:
            out.append(s)
    return tuple(out)


def _occurs(v: PVar, seg, pb: Bindings) -> bool:
    """v occurs in seg under pb, looking through constant arguments."""
    for x in leaves(seg):
        if isinstance(x, PVar):
            if x.id == v.id:
                return True
            val = pb.lookup(x)
            if val is not None and _occurs(v, val, pb):
                return True
    return False


class BudgetExceeded(Exception):
    pass


def _const_match(a: PConst, b: PConst, tb: Bindings, extra: list) -> bool:
    """Match two prefix constants; term arguments unify on the trail,
    prefix-variable arguments become further string constraints."""
    if a.name != b.name or len(a.args) != len(b.args):
        return False
    for x, y in zip(a.args, b.args):
        if isinstance(x, PVar) and isinstance(y, PVar):
            if x.id != y.id:
                extra.append(((x,), (y,)))
        elif isinstance(x, PVar) or isinstance(y, PVar):
            return False
        else:
            if not unify_occurs(x, y, tb):
                return False
    return True


# the index of each end of a string, and the slice that drops it
_ENDS = ((0, slice(1, None)), (-1, slice(None, -1)))


def _simplify(pairs: list, pb: Bindings, tb: Bindings):
    """Deterministic propagation: cancel matching ends, force bindings
    whose value is the only possibility.  Returns the residual pairs or
    None on clash.  Bindings stay on the trails; the caller undoes."""
    work = pairs
    changed = True
    while changed:
        changed = False
        out = []
        for s, t in work:
            s, t = expand(s, pb), expand(t, pb)
            # cancel equal ends, the front first
            for end, drop in _ENDS:
                while s and t:
                    a, b = s[end], t[end]
                    if isinstance(a, PConst) and isinstance(b, PConst):
                        extra: list = []
                        if not _const_match(a, b, tb, extra):
                            return None
                        out.extend(extra)
                        changed = changed or bool(extra)
                    elif not (isinstance(a, PVar) and isinstance(b, PVar) and a.id == b.id):
                        break
                    s, t = s[drop], t[drop]
            if not s and not t:
                continue
            if not s or not t:
                # leftover must be variables that all take the empty string
                leftover = s or t
                if not all(isinstance(x, PVar) for x in leftover):
                    return None
                for x in leftover:
                    if pb.lookup(x) is None:
                        pb.bind(x, ())
                changed = True
                continue
            # a lone variable against a string it does not occur in is forced
            for u, v in ((s, t), (t, s)):
                if len(u) == 1 and isinstance(u[0], PVar) and not _occurs(u[0], v, pb):
                    pb.bind(u[0], v)
                    changed = True
                    break
            else:
                out.append((s, t))
                continue
        work = out
    return work


def _choice_pair(pairs: list):
    """Branch on the most constrained pair (shortest combined length)."""
    best = min(range(len(pairs)), key=lambda i: len(pairs[i][0]) + len(pairs[i][1]))
    return pairs[best], pairs[:best] + pairs[best + 1 :]


def _solve(
    pairs: list, pb: Bindings, tb: Bindings, budget=None, deadline: Optional[float] = None
) -> Iterator[None]:
    if deadline is not None and time.monotonic() > deadline:
        raise SearchTimeout
    if budget is not None:
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded
    pmark, tmark = pb.mark(), tb.mark()
    try:
        work = _simplify(pairs, pb, tb)
        if work is None:
            return
        if not work:
            yield
            return
        (s, t), rest = _choice_pair(work)
        # after simplification at least one head is an unbound variable;
        # it takes each prefix of the other string in turn
        for u, v, flip in ((s, t, False), (t, s, True)):
            if not isinstance(u[0], PVar):
                continue
            for k in range(len(v) + 1):
                seg = v[:k]
                if _occurs(u[0], seg, pb):
                    break
                mark = pb.mark()
                pb.bind(u[0], seg)
                pair = (v[k:], u[1:]) if flip else (u[1:], v[k:])
                try:
                    yield from _solve([pair] + rest, pb, tb, budget, deadline)
                finally:
                    pb.undo_to(mark)
    finally:
        pb.undo_to(pmark)
        tb.undo_to(tmark)


def resolved_string(prefix, pb: Bindings, tb: Bindings) -> tuple:
    """Comparable form of a prefix under the current substitutions.

    Bound prefix variables are flattened away, constant term arguments
    are resolved, and prefix-variable arguments of constants are
    themselves expanded to strings, so two prefixes compare equal
    exactly when the substitutions make them the same string.
    """

    def rsym(s):
        if isinstance(s, PVar):
            return ("V", s.id)
        args = []
        for a in s.args:
            if isinstance(a, PVar):
                args.append(("pfx", tuple(rsym(x) for x in expand((a,), pb))))
            else:
                args.append(("t", tb.resolve_term(a)))
        return ("a", s.name, tuple(args))

    return tuple(rsym(s) for s in expand(prefix, pb))


def constraints_signature(constraints, pb: Bindings, tb: Bindings):
    """Hashable form of a constraint set with variables renumbered by
    first occurrence; copies that differ only in fresh variable ids map
    to the same signature, which makes satisfiability cacheable."""
    pnum: dict[int, int] = {}
    tnum: dict[int, int] = {}

    def num(d, key):
        if key not in d:
            d[key] = len(d) + 1
        return d[key]

    def cterm(t):
        t = tb.walk(t)
        if isinstance(t, Var):
            return ("x", num(tnum, t.id))
        if isinstance(t, PVar):
            return ("V", num(pnum, t.id))
        return (t.sym,) + tuple(cterm(a) for a in t.args)

    def csym(s):
        if isinstance(s, PVar):
            return ("V", num(pnum, s.id))
        return ("a", s.name) + tuple(cterm(a) for a in s.args)

    out = []
    for p1, p2 in constraints:
        e1 = tuple(csym(s) for s in expand(p1, pb))
        e2 = tuple(csym(s) for s in expand(p2, pb))
        out.append((e1, e2))
    return tuple(out)


def prefix_unify(
    constraints,
    pb: Bindings,
    tb: Bindings,
    deadline: Optional[float] = None,
) -> Iterator[Bindings]:
    """Enumerate prefix substitutions equalizing every constraint pair.

    Each solution is checked by application before it is yielded, and a
    solution may repeat: the search takes the first one.  Bindings live
    in `pb` (and term bindings in `tb`) while a solution is being
    consumed and are undone on resumption.  Raises `SearchTimeout` once
    `deadline` (a `time.monotonic()` value) has passed.
    """
    pairs = [(tuple(p1), tuple(p2)) for p1, p2 in constraints]
    for _ in _solve(pairs, pb, tb, deadline=deadline):
        for p1, p2 in pairs:
            if resolved_string(p1, pb, tb) != resolved_string(p2, pb, tb):
                raise RuntimeError("unverified prefix unifier")
        yield pb
