"""Native sequent prover for the first-order logic of here-and-there.

Bottom-up search over the two-axiom, 26-rule sequent calculus.  The rule
table is scanned in a fixed order: non-splitting rules first, then
splitting rules, equivalence expansion, skolemizing quantifier rules and
finally the free-variable quantifier rules.  All rules except the
free-variable ones are invertible, so the first applicable rule is
committed to; free-variable rules retain their principal formula, are
backtracking points, and are capped per branch by a variable limit that
iterative deepening raises round by round.

Quantifier handling follows the free-variable discipline: gamma-type
rules introduce a placeholder variable resolved later by unification at
the axioms, delta-type rules insert a skolem term over the branch's
free variables, and the occurs check rejects instantiations that would
violate the Eigenvariable condition.

A failed round in which the limit never cut off a free-variable rule
is the search every higher limit would do, so its failure is reported
as Refuted; this covers the whole propositional fragment.  A round the
limit did cut off proves nothing, so after round k fails that way the
finite refuter of `oracle` looks for a countermodel on a domain of k
elements (k <= 3); a model it finds is evaluated once more before it
backs a Refuted.

A ground search (no variable and no quantifier in the root sequent, so
nothing is ever bound) does the same search with less work: the axiom
check is a hash lookup, each premise keeps its one proof, and the proof
needs no freezing.  Sequents are tuples throughout, shared by the proof
nodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .oracle import HERE, MAX_DOMAIN, eval_ht_fo, ht_countermodel_fo
from .terms import (
    BINARY,
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
    Term,
    Var,
    fresh_copy,
    is_literal,
    skolem_term,
    struct_equal,
    term_vars,
    unify_literals,
)
from .verdicts import ProverResult, SearchTimeout, deepen

# ============================================================
# Rule table
# ============================================================

NONSPLIT = "nonsplit"
SPLIT = "split"
IFF_EXPAND = "iff"
EIGEN = "eigen"
FREEVAR = "freevar"


@dataclass(frozen=True)
class RuleDef:
    id: str
    pol: int
    kind: str
    shape: str  # and/or/imp/iff/neg_and/.../forall/exists/neg_forall/neg_exists


_SHAPES = {
    "and": lambda f: (f.left, f.right) if isinstance(f, And) else None,
    "or": lambda f: (f.left, f.right) if isinstance(f, Or) else None,
    "imp": lambda f: (f.left, f.right) if isinstance(f, Imp) else None,
    "iff": lambda f: (f.left, f.right) if isinstance(f, Iff) else None,
    "neg_and": lambda f: (f.body.left, f.body.right)
    if isinstance(f, Neg) and isinstance(f.body, And)
    else None,
    "neg_or": lambda f: (f.body.left, f.body.right)
    if isinstance(f, Neg) and isinstance(f.body, Or)
    else None,
    "neg_imp": lambda f: (f.body.left, f.body.right)
    if isinstance(f, Neg) and isinstance(f.body, Imp)
    else None,
    "neg_iff": lambda f: (f.body.left, f.body.right)
    if isinstance(f, Neg) and isinstance(f.body, Iff)
    else None,
    "neg_neg": lambda f: (f.body.body,)
    if isinstance(f, Neg) and isinstance(f.body, Neg)
    else None,
    "forall": lambda f: (f.var, f.body) if isinstance(f, Forall) else None,
    "exists": lambda f: (f.var, f.body) if isinstance(f, Exists) else None,
    "neg_forall": lambda f: (f.body.var, f.body.body)
    if isinstance(f, Neg) and isinstance(f.body, Forall)
    else None,
    "neg_exists": lambda f: (f.body.var, f.body.body)
    if isinstance(f, Neg) and isinstance(f.body, Exists)
    else None,
}

# One entry per clause of the reference rule table, same order.
RULES = (
    RuleDef("r1", 1, NONSPLIT, "and"),
    RuleDef("r2", 0, NONSPLIT, "or"),
    RuleDef("r3", 0, NONSPLIT, "neg_and"),
    RuleDef("r4", 1, NONSPLIT, "neg_or"),
    RuleDef("r5", 1, NONSPLIT, "neg_imp"),
    RuleDef("r6", 1, NONSPLIT, "neg_neg"),
    RuleDef("r7", 0, NONSPLIT, "neg_neg"),
    RuleDef("r8", 0, SPLIT, "and"),
    RuleDef("r9", 1, SPLIT, "or"),
    RuleDef("r10", 1, SPLIT, "neg_and"),
    RuleDef("r11", 0, SPLIT, "neg_or"),
    RuleDef("r12", 0, SPLIT, "neg_imp"),
    RuleDef("r13", 0, SPLIT, "imp"),
    RuleDef("r14", 1, SPLIT, "imp"),
    RuleDef("r15", 1, IFF_EXPAND, "iff"),
    RuleDef("r16", 0, IFF_EXPAND, "iff"),
    RuleDef("r17", 1, IFF_EXPAND, "neg_iff"),
    RuleDef("r18", 0, IFF_EXPAND, "neg_iff"),
    RuleDef("r19", 1, EIGEN, "neg_forall"),
    RuleDef("r20", 0, EIGEN, "neg_exists"),
    RuleDef("r21", 0, EIGEN, "forall"),
    RuleDef("r22", 1, EIGEN, "exists"),
    RuleDef("r23", 0, FREEVAR, "neg_forall"),
    RuleDef("r24", 1, FREEVAR, "neg_exists"),
    RuleDef("r25", 1, FREEVAR, "forall"),
    RuleDef("r26", 0, FREEVAR, "exists"),
)

_COMMITTED = tuple(r for r in RULES if r.kind != FREEVAR)
_FREEVAR_RULES = tuple(r for r in RULES if r.kind == FREEVAR)


def _propositional_premises(rule: RuleDef, parts) -> list:
    """(left additions, right additions) per premise, reference order."""
    if rule.kind == IFF_EXPAND:
        a, b = parts
        expanded = And(Imp(a, b), Imp(b, a))
        if rule.shape == "neg_iff":
            expanded = Neg(expanded)
        return [([expanded], [])] if rule.pol == 1 else [([], [expanded])]
    if rule.id == "r1":
        a, b = parts
        return [([a, b], [])]
    if rule.id == "r2":
        a, b = parts
        return [([], [a, b])]
    if rule.id == "r3":
        a, b = parts
        return [([], [Neg(a), Neg(b)])]
    if rule.id == "r4":
        a, b = parts
        return [([Neg(a), Neg(b)], [])]
    if rule.id == "r5":
        a, b = parts
        return [([Neg(b)], [Neg(a)])]
    if rule.id == "r6":
        (a,) = parts
        return [([], [Neg(a)])]
    if rule.id == "r7":
        (a,) = parts
        return [([Neg(a)], [])]
    if rule.id == "r8":
        a, b = parts
        return [([], [a]), ([], [b])]
    if rule.id == "r9":
        a, b = parts
        return [([a], []), ([b], [])]
    if rule.id == "r10":
        a, b = parts
        return [([Neg(a)], []), ([Neg(b)], [])]
    if rule.id == "r11":
        a, b = parts
        return [([], [Neg(a)]), ([], [Neg(b)])]
    if rule.id == "r12":
        a, b = parts
        return [([Neg(a)], []), ([], [Neg(b)])]
    if rule.id == "r13":
        a, b = parts
        return [([a], [b]), ([Neg(b)], [Neg(a)])]
    if rule.id == "r14":
        a, b = parts
        return [([Neg(a)], []), ([], [a, Neg(b)]), ([b], [])]
    raise ValueError(rule.id)


def _quantifier_premise(rule: RuleDef, principal: Formula, instance: Formula) -> list:
    """Premise additions for r19-r26 given the instantiated body."""
    negated = rule.shape.startswith("neg_")
    inst = Neg(instance) if negated else instance
    if rule.kind == EIGEN:
        return [([inst], [])] if rule.pol == 1 else [([], [inst])]
    # free-variable rules retain the principal formula after the instance
    return [([inst, principal], [])] if rule.pol == 1 else [([], [inst, principal])]


@dataclass
class RuleApplication:
    rule: str
    pol: int
    principal: Formula
    premises: list  # [(left additions, right additions)]
    new_var: Optional[Var] = None
    skolem: Optional[Term] = None


def rule_lookup(f: Formula, pol: int) -> RuleApplication:
    """The unique rule whose conclusion has principal formula (f, pol).

    For quantifier rules the instance is materialized with a fresh
    variable or a skolem constant at a dummy site, which is what the
    prover does at an actual application (with its own site and branch
    variables).  Raises LookupError on literals.
    """
    for rule in RULES:
        if rule.pol != pol:
            continue
        parts = _SHAPES[rule.shape](f)
        if parts is None:
            continue
        if rule.kind in (EIGEN, FREEVAR):
            x, body = parts
            y, inst_body = fresh_copy((x, body), ())
            if rule.kind == EIGEN:
                sk = skolem_term("s", ())
                bnd = Bindings()
                bnd.bind(y, sk)
                inst_body = bnd.resolve_formula(inst_body)
                return RuleApplication(
                    rule.id, pol, f, _quantifier_premise(rule, f, inst_body), skolem=sk
                )
            return RuleApplication(
                rule.id, pol, f, _quantifier_premise(rule, f, inst_body), new_var=y
            )
        return RuleApplication(rule.id, pol, f, _propositional_premises(rule, parts))
    raise LookupError(f"no rule for {f} at polarity {pol}")


def _is_ground(formulas) -> bool:
    """True iff no variable and no quantifier occurs in the formulas."""
    work = list(formulas)
    while work:
        g = work.pop()
        if isinstance(g, Atom):
            if any(term_vars(a) for a in g.args):
                return False
        elif isinstance(g, Neg):
            work.append(g.body)
        elif isinstance(g, BINARY):
            work.append(g.left)
            work.append(g.right)
        else:
            return False
    return True


# ============================================================
# Proof objects
# ============================================================


@dataclass
class ProofNode:
    left: tuple
    right: tuple
    rule: str                      # r1..r26, axiom1, axiom2
    principal: Optional[Formula] = None
    children: tuple = ()
    closing: Optional[tuple] = None     # axiom leaves: the (G, H) pair
    new_var: Optional[Var] = None       # free-variable rules
    witness: Optional[Term] = None      # skolemizing rules
    instance: Optional[Formula] = None  # instantiated body added to the premise

    def rule_applications(self) -> int:
        return (0 if self.rule.startswith("axiom") else 1) + sum(
            c.rule_applications() for c in self.children
        )

    def leaves(self) -> int:
        if not self.children:
            return 1
        return sum(c.leaves() for c in self.children)


def _freeze(node: ProofNode, bnd: Bindings) -> ProofNode:
    rf = bnd.resolve_formula
    # for free-variable rules the closing substitution decides the witness
    wit = node.witness if node.witness is not None else node.new_var
    return ProofNode(
        left=tuple(rf(f) for f in node.left),
        right=tuple(rf(f) for f in node.right),
        rule=node.rule,
        principal=rf(node.principal) if node.principal is not None else None,
        children=tuple(_freeze(c, bnd) for c in node.children),
        closing=tuple(rf(f) for f in node.closing) if node.closing else None,
        new_var=node.new_var,
        witness=bnd.resolve_term(wit) if wit is not None else None,
        instance=rf(node.instance) if node.instance is not None else None,
    )


# ============================================================
# The search
# ============================================================


class LhtSearch:
    """One proof attempt at a fixed per-branch free-variable limit."""

    def __init__(self, var_limit: int, deadline: Optional[float] = None):
        self.var_limit = var_limit
        self.deadline = deadline
        self.bnd = Bindings()
        self.blocked = False   # a free-variable rule was cut off by the limit
        self.nodes = 0
        self.ground: Optional[bool] = None  # set from the root sequent

    # -- axiom closures ----------------------------------------------------

    def _closures(self, left: tuple, right: tuple):
        """Yield leaf nodes; a syntactically identical pair commits.

        Returns True when the commit case fired, in which case the
        caller must not fall through to rule application.
        """
        if self.ground:
            # nothing can be bound: struct_equal is ==, and two literals
            # unify only when they are identical, which commits
            rights = set(right)
            negated = {n.body for n in left if isinstance(n, Neg)}
            for a in left:
                if a in rights:
                    yield ProofNode(left, right, "axiom1", closing=(a, a))
                    return True
                if a in negated:
                    yield ProofNode(left, right, "axiom2", closing=(a, a))
                    return True
            return False
        candidates = [(b, "axiom1") for b in right]
        candidates += [(n.body, "axiom2") for n in left if isinstance(n, Neg)]
        for a in left:
            for b, kind in candidates:
                if struct_equal(a, b, self.bnd):
                    yield ProofNode(left, right, kind, closing=(a, b))
                    return True
                if not is_literal(a):
                    continue
                if kind == "axiom2" and not isinstance(a, Atom):
                    continue
                mark = self.bnd.mark()
                if unify_literals(a, b, self.bnd):
                    try:
                        yield ProofNode(left, right, kind, closing=(a, b))
                    finally:
                        self.bnd.undo_to(mark)
        return False

    # -- rule application --------------------------------------------------

    def first_proof(self, left: tuple, right: tuple) -> Optional[ProofNode]:
        """The first proof of left |- right at this limit, or None.

        Bindings are resolved into the proof unless the search is ground.
        """
        for node in self.prove(tuple(left), tuple(right), "s", []):
            return node if self.ground else _freeze(node, self.bnd)
        return None

    def prove(self, left: tuple, right: tuple, pos: str, freev: list) -> Iterator[ProofNode]:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchTimeout
        self.nodes += 1
        if self.ground is None:
            self.ground = not freev and _is_ground(left + right)

        if (yield from self._closures(left, right)):
            return

        # first matching invertible rule commits
        for rule in _COMMITTED:
            side = left if rule.pol == 1 else right
            for idx, f in enumerate(side):
                parts = _SHAPES[rule.shape](f)
                if parts is not None:
                    yield from self._apply(rule, parts, idx, left, right, pos, freev)
                    return

        # free-variable rules: all (rule, position) pairs are alternatives
        for rule in _FREEVAR_RULES:
            side = left if rule.pol == 1 else right
            for idx, f in enumerate(side):
                parts = _SHAPES[rule.shape](f)
                if parts is None:
                    continue
                if len(freev) >= self.var_limit:
                    self.blocked = True
                    continue
                yield from self._apply(rule, parts, idx, left, right, pos, freev)

    def _apply(self, rule, parts, idx, left, right, pos, freev) -> Iterator[ProofNode]:
        if rule.pol == 1:
            principal = left[idx]
            l0, r0 = left[:idx] + left[idx + 1 :], right
        else:
            principal = right[idx]
            l0, r0 = left, right[:idx] + right[idx + 1 :]

        mark = self.bnd.mark()
        new_var = witness = instance = None
        freev2 = freev
        if rule.kind in (EIGEN, FREEVAR):
            x, body = parts
            y, inst = fresh_copy((x, body), freev, self.bnd)
            instance = inst
            if rule.kind == EIGEN:
                witness = skolem_term(pos, freev)
                self.bnd.bind(y, witness)
            else:
                new_var = y
                freev2 = freev + [y]
            adds = _quantifier_premise(rule, principal, inst)
        else:
            adds = _propositional_premises(rule, parts)

        premises = [((*la, *l0), (*ra, *r0)) for la, ra in adds]
        try:
            for children in self._premises(premises, pos, freev2, 0, ()):
                yield ProofNode(
                    left,
                    right,
                    rule.id,
                    principal=principal,
                    children=children,
                    new_var=new_var,
                    witness=witness,
                    instance=instance,
                )
        finally:
            self.bnd.undo_to(mark)

    def _premises(self, premises, pos, freev, i, acc) -> Iterator[tuple]:
        if i == len(premises):
            yield acc
            return
        l, r = premises[i]
        proofs = self.prove(l, r, ("l", "r", "x")[i] + pos, freev)
        if self.ground:
            # a ground sequent has at most one proof: keep it and drop
            # the suspended search behind it instead of resuming it
            node = next(proofs, None)
            proofs.close()
            if node is not None:
                yield from self._premises(premises, pos, freev, i + 1, acc + (node,))
            return
        for node in proofs:
            yield from self._premises(premises, pos, freev, i + 1, acc + (node,))


# ============================================================
# Entry point
# ============================================================


def prove_lht(f: Formula, timeout: Optional[float] = None) -> ProverResult:
    """Iterative deepening on the free-variable limit, starting at 1.

    A failed round that no free-variable rule was cut from is the whole
    search and yields Refuted; this covers the propositional fragment.
    A blocked round k is followed by a search for a countermodel on k
    domain elements, up to MAX_DOMAIN; a model that is false at `here`
    yields Refuted with the model attached.
    """
    deadline = time.monotonic() + timeout if timeout is not None else None

    def run_round(limit):
        search = LhtSearch(limit, deadline)
        return search, search.first_proof((), (f,))

    def settle(limit):
        if limit > MAX_DOMAIN:
            return None
        model = ht_countermodel_fo(f, limit, deadline)
        if model is not None and not eval_ht_fo(f, model, HERE):
            return model
        return None

    return deepen(run_round, deadline, ProofNode.rule_applications, settle=settle)
