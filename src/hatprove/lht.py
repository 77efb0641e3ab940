"""Native sequent prover for the first-order logic of here-and-there.

Bottom-up search over the two-axiom, 26-rule sequent calculus, written
down once in `RULES`: each rule's polarity, its principal's connective
(under a negation or not) and, for the propositional rules, its premise
schema.  The search and `proofcheck` both find a rule by its
principal's shape through `rule_of`.  At each node that is not an
axiom, one pass over the sequent looks up the rule of every formula.
All rules except the free-variable ones are invertible, so the node
commits to the applicable invertible rule that comes first in the
table, on its leftmost principal.  The table is in choice order, as
for analytic tableaux: the one-premise rules (r1-r7, equivalence
expansion r15-r18 and the skolemizing quantifier rules r19-r22) come
before the branching rules r8-r14, so no branch repeats work its
parent could do once.  Only when none applies are the free-variable
rules r23-r26 tried, every (rule, position) pair in table order and
left to right; they retain their principal formula, are backtracking
points, and are capped per branch by a variable limit that iterative
deepening raises round by round.

Quantifier handling follows the free-variable discipline: gamma-type
rules substitute a fresh variable for the binder, resolved later by
unification at the axioms, delta-type rules substitute a skolem term
over the branch's free variables and bind nothing, and the occurs check
rejects instantiations that would violate the Eigenvariable condition.

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
needs no freezing.  It also proves each sequent once.  Every node
commits, so a proof of a sequent serves wherever the sequent recurs:
the search keeps a table from the key of each proved sequent that is
not an axiom to its proof node, and a premise found there reuses the
node, which makes the proof a DAG.  A key is an order-independent hash
of each side, and a premise's key is its parent's less the principal
plus the premise's additions, so keys cost O(additions) per node.  A
hit is reused only when both sides equal the premise's as multisets,
so a hash collision costs time, not soundness.  Sequents are tuples
throughout, shared by the proof nodes.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable, Iterator, Optional

from .oracle import HERE, MAX_DOMAIN, eval_ht, ht_countermodel_fo
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
    QUANT,
    Term,
    fresh_var,
    is_ground,
    is_literal,
    skolem_term,
    struct_equal,
    substitute,
    unfold_iff,
    unify_literals,
)
from .verdicts import ProverResult, SearchTimeout, deepen

# ============================================================
# Rule table
# ============================================================

PROP = "prop"
EIGEN = "eigen"
FREEVAR = "freevar"


@dataclass(frozen=True)
class RuleDef:
    id: str
    pol: int
    kind: str
    conn: type       # the principal's connective
    negated: bool    # the principal is ~(conn ...)
    premises: Optional[Callable] = None  # operands -> [(left adds, right adds)]


# One entry per clause of the reference rule table, in choice order:
# one-premise rules, branching rules, free-variable rules.  The
# propositional operands are (left, right), or (a,) for ~ ~ a; the
# quantifier operands are (binder, body).
RULES = (
    RuleDef("r1", 1, PROP, And, False, lambda a, b: [([a, b], [])]),
    RuleDef("r2", 0, PROP, Or, False, lambda a, b: [([], [a, b])]),
    RuleDef("r3", 0, PROP, And, True, lambda a, b: [([], [Neg(a), Neg(b)])]),
    RuleDef("r4", 1, PROP, Or, True, lambda a, b: [([Neg(a), Neg(b)], [])]),
    RuleDef("r5", 1, PROP, Imp, True, lambda a, b: [([Neg(b)], [Neg(a)])]),
    RuleDef("r6", 1, PROP, Neg, True, lambda a: [([], [Neg(a)])]),
    RuleDef("r7", 0, PROP, Neg, True, lambda a: [([Neg(a)], [])]),
    RuleDef("r15", 1, PROP, Iff, False, lambda a, b: [([unfold_iff(a, b)], [])]),
    RuleDef("r16", 0, PROP, Iff, False, lambda a, b: [([], [unfold_iff(a, b)])]),
    RuleDef("r17", 1, PROP, Iff, True, lambda a, b: [([Neg(unfold_iff(a, b))], [])]),
    RuleDef("r18", 0, PROP, Iff, True, lambda a, b: [([], [Neg(unfold_iff(a, b))])]),
    RuleDef("r19", 1, EIGEN, Forall, True),
    RuleDef("r20", 0, EIGEN, Exists, True),
    RuleDef("r21", 0, EIGEN, Forall, False),
    RuleDef("r22", 1, EIGEN, Exists, False),
    RuleDef("r8", 0, PROP, And, False, lambda a, b: [([], [a]), ([], [b])]),
    RuleDef("r9", 1, PROP, Or, False, lambda a, b: [([a], []), ([b], [])]),
    RuleDef("r10", 1, PROP, And, True, lambda a, b: [([Neg(a)], []), ([Neg(b)], [])]),
    RuleDef("r11", 0, PROP, Or, True, lambda a, b: [([], [Neg(a)]), ([], [Neg(b)])]),
    RuleDef("r12", 0, PROP, Imp, True, lambda a, b: [([Neg(a)], []), ([], [Neg(b)])]),
    RuleDef("r13", 0, PROP, Imp, False, lambda a, b: [([a], [b]), ([Neg(b)], [Neg(a)])]),
    RuleDef("r14", 1, PROP, Imp, False, lambda a, b: [([Neg(a)], []), ([], [a, Neg(b)]), ([b], [])]),
    RuleDef("r23", 0, FREEVAR, Forall, True),
    RuleDef("r24", 1, FREEVAR, Exists, True),
    RuleDef("r25", 1, FREEVAR, Forall, False),
    RuleDef("r26", 0, FREEVAR, Exists, False),
)

# (connective, negated, polarity) -> (position in RULES, rule); literals
# have no entry
_BY_SHAPE = {(r.conn, r.negated, r.pol): (i, r) for i, r in enumerate(RULES)}


def _operands(f: Formula) -> tuple:
    g = f.body if type(f) is Neg else f
    if type(g) is Neg:
        return (g.body,)
    if isinstance(g, QUANT):
        return (g.var, g.body)
    return (g.left, g.right)


def _lookup(f: Formula, pol: int) -> Optional[tuple]:
    """(position in RULES, rule) for principal f at polarity pol."""
    t = type(f)
    return _BY_SHAPE.get((type(f.body), True, pol) if t is Neg else (t, False, pol))


def rule_of(f: Formula, pol: int) -> Optional[tuple]:
    """(rule, operands) for principal f at polarity pol; None for a literal."""
    hit = _lookup(f, pol)
    return None if hit is None else (hit[1], _operands(f))


def _quantifier_premise(rule: RuleDef, principal: Formula, instance: Formula) -> list:
    """Premise additions for r19-r26 given the instantiated body."""
    inst = Neg(instance) if rule.negated else instance
    if rule.kind == EIGEN:
        return [([inst], [])] if rule.pol == 1 else [([], [inst])]
    # free-variable rules retain the principal formula after the instance
    return [([inst, principal], [])] if rule.pol == 1 else [([], [inst, principal])]


# A sequent's key is L * _LEFT + R, where L and R are the sums of the
# hashes on each side: order-independent, and one int per table entry.
# With fewer than 2**8 formulas on the right, |R| < _LEFT / 2, so the key
# determines L and R; past that, keys only collide more often.
_LEFT = 1 << 72


def _sequent_key(left: tuple, right: tuple) -> int:
    return sum(map(hash, left)) * _LEFT + sum(map(hash, right))


def _premise_keys(key: int, pol: int, principal: Formula, adds: list) -> list:
    """The premises' keys: the node's key less the principal, plus each
    premise's additions."""
    key -= hash(principal) * _LEFT if pol == 1 else hash(principal)
    keys = []
    for la, ra in adds:
        k = key
        for f in la:
            k += hash(f) * _LEFT
        for f in ra:
            k += hash(f)
        keys.append(k)
    return keys


def _same_side(a: tuple, b: tuple) -> bool:
    """a and b are equal as multisets."""
    return len(a) == len(b) and (a == b or Counter(a) == Counter(b))


# ============================================================
# Proof objects
# ============================================================


_NODE_NAMES = ("left", "right", "rule", "principal", "closing", "witness")
_node_fields = attrgetter(*_NODE_NAMES)


@dataclass(slots=True, eq=False)
class ProofNode:
    left: tuple
    right: tuple
    rule: str                      # r1..r26, axiom1, axiom2
    principal: Optional[Formula] = None
    children: tuple = ()
    closing: Optional[Formula] = None  # axiom leaves: G, on the right or under ~ on the left
    witness: Optional[Term] = None     # quantifier rules: the term put for the binder

    def __eq__(self, other):
        """Equal fields and premises; each pair of nodes is compared once,
        so a DAG is not expanded into its tree."""
        seen, todo = set(), [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if not isinstance(b, ProofNode) or len(a.children) != len(b.children):
                return False
            if _node_fields(a) != _node_fields(b):
                return False
            seen.add((id(a), id(b)))
            todo.extend(zip(a.children, b.children))
        return True

    def __repr__(self):
        """Each distinct node written once, as `#k=ProofNode(...)`, and as
        `#k#` where it recurs; formulas in native syntax, None fields left out."""
        labels = {}

        def show(node):
            if id(node) in labels:
                return f"#{labels[id(node)]}#"
            labels[id(node)] = k = len(labels) + 1
            fields = [
                f"{name}=[{', '.join(map(str, v))}]" if type(v) is tuple else f"{name}={v}"
                for name, v in zip(_NODE_NAMES, _node_fields(node))
                if v is not None
            ]
            fields.append(f"children=[{', '.join(map(show, node.children))}]")
            return f"#{k}=ProofNode({', '.join(fields)})"

        return show(self)

    def rule_applications(self) -> int:
        """Rule applications of the proof read as a tree: a node that
        several premises share counts for each, but is visited once."""
        apps = {}

        def count(node):
            if not node.children:
                return 0 if node.rule.startswith("axiom") else 1
            n = apps.get(id(node))
            if n is None:
                n = apps[id(node)] = 1 + sum(map(count, node.children))
            return n

        return count(self)


def _freeze(proof: ProofNode, bnd: Bindings) -> ProofNode:
    """The proof under the current bindings; a node that several
    premises share is frozen once, so the copy keeps the proof's DAG."""
    rf = bnd.resolve_formula
    frozen: dict = {}  # id of a proof node -> its frozen copy

    def freeze(node: ProofNode) -> ProofNode:
        out = frozen.get(id(node))
        if out is not None:
            return out
        out = frozen[id(node)] = ProofNode(
            left=tuple(rf(f) for f in node.left),
            right=tuple(rf(f) for f in node.right),
            rule=node.rule,
            principal=rf(node.principal) if node.principal is not None else None,
            children=tuple(map(freeze, node.children)),
            closing=rf(node.closing) if node.closing is not None else None,
            # a free-variable rule's witness is resolved by the closing bindings
            witness=bnd.resolve_term(node.witness) if node.witness is not None else None,
        )
        return out

    return freeze(proof)


def _ground_axiom(left: tuple, right: tuple) -> Optional[ProofNode]:
    """The axiom leaf of a ground sequent, or None.

    Nothing can be bound: struct_equal is ==, and two literals unify
    only when they are identical, which commits.
    """
    rights = set(right)
    negated = {n.body for n in left if isinstance(n, Neg)}
    for a in left:
        if a in rights:
            return ProofNode(left, right, "axiom1", closing=a)
        if a in negated:
            return ProofNode(left, right, "axiom2", closing=a)
    return None


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
        self.settled = {}  # ground: sequent key -> proof node, not a leaf

    # -- axiom closures ----------------------------------------------------

    def _closures(self, left: tuple, right: tuple):
        """Yield leaf nodes; a syntactically identical pair commits.

        Returns True when the commit case fired, in which case the
        caller must not fall through to rule application.
        """
        candidates = [(b, "axiom1") for b in right]
        candidates += [(n.body, "axiom2") for n in left if isinstance(n, Neg)]
        for a in left:
            for b, kind in candidates:
                if struct_equal(a, b, self.bnd):
                    yield ProofNode(left, right, kind, closing=a)
                    return True
                if not is_literal(a):
                    continue
                if kind == "axiom2" and not isinstance(a, Atom):
                    continue
                mark = self.bnd.mark()
                if unify_literals(a, b, self.bnd):
                    try:
                        yield ProofNode(left, right, kind, closing=a)
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

    def prove(
        self, left: tuple, right: tuple, pos: str, freev: list, key: Optional[int] = None
    ) -> Iterator[ProofNode]:
        """Proofs of left |- right; a ground search passes the sequent's
        key, which the root computes."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchTimeout
        self.nodes += 1
        if self.ground is None:
            self.ground = not freev and is_ground(left + right)

        if self.ground:
            if key is None:
                key = _sequent_key(left, right)
            leaf = _ground_axiom(left, right)
            if leaf is not None:
                yield leaf
                return
        elif (yield from self._closures(left, right)):
            return

        # the invertible rule first in the table commits, on its leftmost
        # principal; the free-variable pairs are alternatives
        best = None
        freevar = []
        for pol, side in ((1, left), (0, right)):
            for idx, f in enumerate(side):
                hit = _lookup(f, pol)
                if hit is None:
                    continue
                rank, rule = hit
                if rule.kind == FREEVAR:
                    freevar.append((rank, rule, idx))
                elif best is None or rank < best[0]:
                    best = (rank, rule, idx)
        if best is not None:
            yield from self._apply(best[1], best[2], left, right, pos, freev, key)
            return
        # in table order, then left to right (the sort is stable)
        freevar.sort(key=itemgetter(0))
        for _, rule, idx in freevar:
            if len(freev) >= self.var_limit:
                self.blocked = True
                continue
            yield from self._apply(rule, idx, left, right, pos, freev)

    def _apply(self, rule, idx, left, right, pos, freev, key=None) -> Iterator[ProofNode]:
        if rule.pol == 1:
            principal = left[idx]
            l0, r0 = left[:idx] + left[idx + 1 :], right
        else:
            principal = right[idx]
            l0, r0 = left, right[:idx] + right[idx + 1 :]

        witness = None
        freev2 = freev
        parts = _operands(principal)
        if rule.premises is None:
            x, body = parts
            if rule.kind == EIGEN:
                witness = skolem_term(pos, freev)
            else:
                witness = fresh_var(x.name)
                freev2 = freev + [witness]
            adds = _quantifier_premise(rule, principal, substitute(body, x, witness))
        else:
            adds = rule.premises(*parts)

        if self.ground:
            keys = _premise_keys(key, rule.pol, principal, adds)
        else:
            keys = [None] * len(adds)
        # a side that a premise adds nothing to is the node's side, shared
        premises = [
            ((*la, *l0) if la else l0, (*ra, *r0) if ra else r0, k)
            for (la, ra), k in zip(adds, keys)
        ]
        for children in self._premises(premises, pos, freev2, 0, ()):
            yield ProofNode(
                left,
                right,
                rule.id,
                principal=principal,
                children=children,
                witness=witness,
            )

    def _premises(self, premises, pos, freev, i, acc) -> Iterator[tuple]:
        if i == len(premises):
            yield acc
            return
        l, r, key = premises[i]
        sub = ("l", "r", "x")[i] + pos
        if self.ground:
            # a ground sequent has at most one proof: reuse it if it is
            # settled, else search for it.  The search commits, so once it
            # has yielded, resuming it only returns, which unwinds faster
            # than closing it
            node = self.settled.get(key)
            if node is None or not (_same_side(node.left, l) and _same_side(node.right, r)):
                proofs = self.prove(l, r, sub, freev, key)
                node = next(proofs, None)
                next(proofs, None)
                if node is None:
                    return
                # an axiom leaf is found again as fast as it is looked up
                if node.children:
                    self.settled[key] = node
            yield from self._premises(premises, pos, freev, i + 1, acc + (node,))
            return
        for node in self.prove(l, r, sub, freev):
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
        if model is not None and not eval_ht(f, model, HERE):
            return model
        return None

    return deepen(run_round, deadline, ProofNode.rule_applications, settle=settle)
