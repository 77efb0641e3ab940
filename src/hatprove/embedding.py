"""Axiomatic embedding of here-and-there into intuitionistic logic.

Generates the restricted axiom set over a formula's predicate
signature: the hos schema `G ; (G => H) ; ~H` for literals G and atoms
H over distinct shapes (the pair where G is the un-negated atom of H's
own predicate is dropped as trivial), and the sqht schema
`ex xs (G => all ys G)` for every literal over a predicate of arity at
least one.  All instances are universally closed.  A formula is
HT-valid whenever the embedded formula is intuitionistically valid;
with this restricted set the converse direction is not guaranteed, so
embedding backends can prove but never refute.
"""

from __future__ import annotations

from typing import Iterable

from .frontend import conjoin
from .terms import Atom, Exists, Forall, Formula, Imp, Neg, Or, fresh_var, signature


def _literal(pred: str, arity: int, negated: bool):
    xs = tuple(fresh_var(f"X{i + 1}") for i in range(arity))
    atom = Atom(pred, xs)
    return (Neg(atom) if negated else atom), xs


def hos_instances(sig: Iterable) -> list:
    """All hos axioms over the signature.

    G ranges over atoms and negated atoms of every predicate, H over
    atoms; the (G, H) pair with G the positive atom of H's predicate is
    skipped.  That yields 2*|P|^2 - |P| closed axioms.
    """
    sig = list(sig)
    out = []
    for negated in (False, True):
        for gp, gn in sig:
            for hp, hn in sig:
                if not negated and gp == hp:
                    continue
                g, xs = _literal(gp, gn, negated)
                h, ys = _literal(hp, hn, False)
                body = Or(g, Or(Imp(g, h), Neg(h)))
                for v in reversed(xs + ys):
                    body = Forall(v, body)
                out.append(body)
    return out


def sqht_instances(sig: Iterable) -> list:
    """All sqht axioms: ex xs (G => all ys G), one per literal shape.

    Zero-arity predicates are skipped; their instance degenerates to
    the tautology G => G.
    """
    out = []
    for pred, arity in sig:
        if arity == 0:
            continue
        for negated in (False, True):
            g, xs = _literal(pred, arity, negated)
            ys = tuple(fresh_var(f"Y{i + 1}") for i in range(arity))
            inner = Atom(pred, ys)
            if negated:
                inner = Neg(inner)
            for v in reversed(ys):
                inner = Forall(v, inner)
            body = Imp(g, inner)
            for v in reversed(xs):
                body = Exists(v, body)
            out.append(body)
    return out


def ht_axioms(f: Formula) -> list:
    sig = signature(f)[0]  # predicate symbols with arities
    return hos_instances(sig) + sqht_instances(sig)


def embed(f: Formula) -> Formula:
    """(A1 , ... , Ak) => f over f's own signature; f itself when k=0."""
    axioms = ht_axioms(f)
    if not axioms:
        return f
    return Imp(conjoin(axioms), f)
