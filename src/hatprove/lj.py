"""Single-succedent intuitionistic sequent prover.

Bottom-up search in a Gentzen-style calculus whose right side holds at
most one formula.  Invertible rules are applied eagerly and committed;
the genuine choice points are the disjunct of a right disjunction,
implication-left (which keeps the implication in its first premise),
negation-left (which discards the succedent), and the free-variable
quantifier rules.  Universal-left retains its principal formula, and
existential-right consumes it, as single-succedent completeness
requires.

Contraction is absorbed: the left side is kept as a set, so inserting
a formula that is already present (under the current bindings) changes
nothing, and a sequent identical to a branch ancestor is cut off.
Together with the per-branch free-variable cap this makes every round
terminate.  A failed round in which the cap never cut off a
free-variable rule is the search every higher cap would do, so it is
reported as Refuted; the propositional fragment is thereby decided.

Quantifiers use the same free-variable and dynamic-skolemization
discipline as the native prover, with iterative deepening on the
number of free variables per branch.
"""

from __future__ import annotations

import time
from typing import Optional

from .terms import (
    And,
    Atom,
    Bindings,
    Exists,
    Forall,
    Formula,
    Iff,
    Imp,
    Neg,
    Or,
    fresh_copy,
    skolem_term,
    struct_equal,
    unify_literals,
)
from .verdicts import ProverResult, SearchTimeout, deepen


class LJSearch:
    def __init__(self, var_limit: int, deadline: Optional[float] = None):
        self.var_limit = var_limit
        self.deadline = deadline
        self.bnd = Bindings()
        self.blocked = False   # a free-variable rule was cut off by the cap
        self.nodes = 0

    def _insert(self, items: list, f: Formula) -> list:
        if any(struct_equal(f, g, self.bnd) for g in items):
            return items
        return [f] + items

    def _extend(self, items: list, adds) -> list:
        for f in adds:
            items = self._insert(items, f)
        return items

    def _key(self, left: list, right: Optional[Formula]):
        rf = self.bnd.resolve_formula
        return (frozenset(rf(f) for f in left), rf(right) if right is not None else None)

    def prove(self, left: list, right: Optional[Formula], pos: str, freev: list, hist):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchTimeout
        self.nodes += 1
        key = self._key(left, right)
        if key in hist:
            return
        hist = hist | {key}

        # -- axiom: an identical pair commits, atoms close by unification
        if right is not None:
            for a in left:
                if struct_equal(a, right, self.bnd):
                    yield True
                    return
            if isinstance(right, Atom):
                for a in left:
                    if isinstance(a, Atom):
                        mark = self.bnd.mark()
                        if unify_literals(a, right, self.bnd):
                            try:
                                yield True
                            finally:
                                self.bnd.undo_to(mark)

        # -- invertible rules: first match commits
        for idx, f in enumerate(left):
            rest = left[:idx] + left[idx + 1 :]
            if isinstance(f, And):
                premise = self._extend(rest, [f.right, f.left])
                yield from self.prove(premise, right, "l" + pos, freev, hist)
                return
            if isinstance(f, Iff):
                expanded = And(Imp(f.left, f.right), Imp(f.right, f.left))
                yield from self.prove(
                    self._insert(rest, expanded), right, "l" + pos, freev, hist
                )
                return
            if isinstance(f, Or):
                for _ in self.prove(
                    self._insert(rest, f.left), right, "l" + pos, freev, hist
                ):
                    yield from self.prove(
                        self._insert(rest, f.right), right, "r" + pos, freev, hist
                    )
                return
            if isinstance(f, Exists):
                sk = skolem_term(pos, freev)
                y, inst = fresh_copy((f.var, f.body), freev, self.bnd)
                mark = self.bnd.mark()
                self.bnd.bind(y, sk)
                try:
                    yield from self.prove(
                        self._insert(rest, inst), right, "l" + pos, freev, hist
                    )
                finally:
                    self.bnd.undo_to(mark)
                return
        if isinstance(right, Imp):
            premise = self._insert(left, right.left)
            yield from self.prove(premise, right.right, "l" + pos, freev, hist)
            return
        if isinstance(right, Iff):
            expanded = And(Imp(right.left, right.right), Imp(right.right, right.left))
            yield from self.prove(left, expanded, "l" + pos, freev, hist)
            return
        if isinstance(right, Neg):
            premise = self._insert(left, right.body)
            yield from self.prove(premise, None, "l" + pos, freev, hist)
            return
        if isinstance(right, And):
            for _ in self.prove(left, right.left, "l" + pos, freev, hist):
                yield from self.prove(left, right.right, "r" + pos, freev, hist)
            return
        if isinstance(right, Forall):
            sk = skolem_term(pos, freev)
            y, inst = fresh_copy((right.var, right.body), freev, self.bnd)
            mark = self.bnd.mark()
            self.bnd.bind(y, sk)
            try:
                yield from self.prove(left, inst, "l" + pos, freev, hist)
            finally:
                self.bnd.undo_to(mark)
            return

        # -- choice points
        if isinstance(right, Or):
            yield from self.prove(left, right.left, "l" + pos, freev, hist)
            yield from self.prove(left, right.right, "r" + pos, freev, hist)

        for idx, f in enumerate(left):
            if isinstance(f, Imp):
                rest = left[:idx] + left[idx + 1 :]
                for _ in self.prove(left, f.left, "l" + pos, freev, hist):
                    yield from self.prove(
                        self._insert(rest, f.right), right, "r" + pos, freev, hist
                    )
            elif isinstance(f, Neg):
                yield from self.prove(left, f.body, "l" + pos, freev, hist)

        if isinstance(right, Exists):
            if len(freev) < self.var_limit:
                y, inst = fresh_copy((right.var, right.body), freev, self.bnd)
                yield from self.prove(left, inst, "l" + pos, freev + [y], hist)
            else:
                self.blocked = True

        for f in list(left):
            if isinstance(f, Forall):
                if len(freev) < self.var_limit:
                    y, inst = fresh_copy((f.var, f.body), freev, self.bnd)
                    yield from self.prove(
                        self._insert(left, inst), right, "l" + pos, freev + [y], hist
                    )
                else:
                    self.blocked = True


def prove_lj(f: Formula, timeout: Optional[float] = None) -> ProverResult:
    """Intuitionistic provability with iterative deepening on the cap."""
    deadline = time.monotonic() + timeout if timeout is not None else None

    def run_round(limit):
        search = LJSearch(limit, deadline)
        return search, next(search.prove([], f, "s", [], frozenset()), None)

    return deepen(run_round, deadline)
