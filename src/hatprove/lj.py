"""Single-succedent intuitionistic sequent prover.

Bottom-up search in a Gentzen-style calculus whose right side holds at
most one formula.  Invertible rules are applied eagerly and committed;
the genuine choice points are the disjunct of a right disjunction,
implication-left (which keeps the implication in its first premise),
negation-left (which discards the succedent), and the free-variable
quantifier rules.  Universal-left retains its principal formula, and
existential-right consumes it, as single-succedent completeness
requires.

Contraction is absorbed: the left side is kept as a set, so a formula
already present (under the current bindings) is not added twice, and a
sequent identical to a branch ancestor is cut off, so a propositional
search ends.  A failed round in which the per-branch free-variable cap
never cut off a free-variable rule is the search every higher cap
would do, so it is reported as Refuted; the propositional fragment is
thereby decided.  The cap bounds only the free-variable rules, so a
first-order round need not end: where negation-left, which keeps its
principal, reaches a skolemizing rule again, each pass adds a new
skolem instance and no sequent repeats.

Each proof found yields the set of left-formula occurrences it used,
compared by identity (`id`): the formula an axiom closes with, and the
principal of every left rule.  Inserting a formula equal to one already
present replaces the old occurrence, so a use is charged to the
occurrence the current rule produced.  This gives left disjunction a use
check, as in dependency-directed backtracking for tableaux (Horrocks and
Patel-Schneider, 1999): a proof of the left premise that never used the
left disjunct proves the sequent without the disjunction, so it is the
node's proof by weakening and the right premise is skipped; a
disjunction whose left disjunct is already present is dropped the same
way.  Skipping loses no proof, because every proof built with the right
premise only adds bindings to one already yielded.  The embedding's
axioms `G ; (G => H) ; ~H` are such disjunctions, and a proof that uses
none of them is no longer repeated in each of their branches.

Quantifiers use the same free-variable and dynamic-skolemization
discipline as the native prover: a free-variable rule substitutes a
fresh variable for the binder, a skolemizing rule a skolem term over
the branch's free variables, and neither binds anything.  An instance
shares the inner binders of its body, so one equal to a formula
already on the left is not added again.  Iterative deepening runs on
the number of free variables per branch.
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
    fresh_var,
    skolem_term,
    struct_equal,
    substitute,
    unfold_iff,
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
        """Put f first; an equal formula already present is dropped, so a
        later use is charged to the occurrence the current rule made."""
        for i, g in enumerate(items):
            if struct_equal(f, g, self.bnd):
                return [f] + items[:i] + items[i + 1 :]
        return [f] + items

    def _key(self, left: list, right: Optional[Formula]):
        rf = self.bnd.resolve_formula
        return (frozenset(rf(f) for f in left), rf(right) if right is not None else None)

    def prove(self, left: list, right: Optional[Formula], pos: str, freev: list, hist):
        """Yield, per proof found, the ids of the left occurrences it used."""
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
                    yield frozenset((id(a),))
                    return
            if isinstance(right, Atom):
                for a in left:
                    if isinstance(a, Atom):
                        mark = self.bnd.mark()
                        if unify_literals(a, right, self.bnd):
                            try:
                                yield frozenset((id(a),))
                            finally:
                                self.bnd.undo_to(mark)

        # -- invertible rules: first match commits
        for idx, f in enumerate(left):
            rest = left[:idx] + left[idx + 1 :]
            if isinstance(f, And):
                premise = self._insert(self._insert(rest, f.right), f.left)
                for used in self.prove(premise, right, "l" + pos, freev, hist):
                    yield used | {id(f)}
                return
            if isinstance(f, Iff):
                expanded = unfold_iff(f.left, f.right)
                premise = self._insert(rest, expanded)
                for used in self.prove(premise, right, "l" + pos, freev, hist):
                    yield used | {id(f)}
                return
            if isinstance(f, Or):
                if any(struct_equal(f.left, g, self.bnd) for g in rest):
                    # the left premise is the sequent without f: weakening
                    yield from self.prove(rest, right, "l" + pos, freev, hist)
                    return
                for used in self.prove([f.left] + rest, right, "l" + pos, freev, hist):
                    if id(f.left) not in used:
                        yield used  # proves rest, so the node by weakening
                        continue
                    for used_r in self.prove(
                        self._insert(rest, f.right), right, "r" + pos, freev, hist
                    ):
                        yield used | used_r | {id(f)}
                return
            if isinstance(f, Exists):
                inst = substitute(f.body, f.var, skolem_term(pos, freev))
                premise = self._insert(rest, inst)
                for used in self.prove(premise, right, "l" + pos, freev, hist):
                    yield used | {id(f)}
                return
        if isinstance(right, Imp):
            premise = self._insert(left, right.left)
            yield from self.prove(premise, right.right, "l" + pos, freev, hist)
            return
        if isinstance(right, Iff):
            expanded = unfold_iff(right.left, right.right)
            yield from self.prove(left, expanded, "l" + pos, freev, hist)
            return
        if isinstance(right, Neg):
            premise = self._insert(left, right.body)
            yield from self.prove(premise, None, "l" + pos, freev, hist)
            return
        if isinstance(right, And):
            for used in self.prove(left, right.left, "l" + pos, freev, hist):
                for used_r in self.prove(left, right.right, "r" + pos, freev, hist):
                    yield used | used_r
            return
        if isinstance(right, Forall):
            inst = substitute(right.body, right.var, skolem_term(pos, freev))
            yield from self.prove(left, inst, "l" + pos, freev, hist)
            return

        # -- choice points
        if isinstance(right, Or):
            yield from self.prove(left, right.left, "l" + pos, freev, hist)
            yield from self.prove(left, right.right, "r" + pos, freev, hist)

        for idx, f in enumerate(left):
            if isinstance(f, Imp):
                rest = left[:idx] + left[idx + 1 :]
                for used in self.prove(left, f.left, "l" + pos, freev, hist):
                    for used_r in self.prove(
                        self._insert(rest, f.right), right, "r" + pos, freev, hist
                    ):
                        yield used | used_r | {id(f)}
            elif isinstance(f, Neg):
                for used in self.prove(left, f.body, "l" + pos, freev, hist):
                    yield used | {id(f)}

        if isinstance(right, Exists):
            if len(freev) < self.var_limit:
                y = fresh_var(right.var.name)
                inst = substitute(right.body, right.var, y)
                yield from self.prove(left, inst, "l" + pos, freev + [y], hist)
            else:
                self.blocked = True

        for f in list(left):
            if isinstance(f, Forall):
                if len(freev) < self.var_limit:
                    y = fresh_var(f.var.name)
                    premise = self._insert(left, substitute(f.body, f.var, y))
                    for used in self.prove(premise, right, "l" + pos, freev + [y], hist):
                        yield used | {id(f)}
                else:
                    self.blocked = True


def prove_lj(f: Formula, timeout: Optional[float] = None) -> ProverResult:
    """Intuitionistic provability with iterative deepening on the cap."""
    deadline = time.monotonic() + timeout if timeout is not None else None

    def run_round(limit):
        search = LJSearch(limit, deadline)
        return search, next(search.prove([], f, "s", [], frozenset()), None)

    return deepen(run_round, deadline)
