"""Independent validation of sequent proofs.

Walks a frozen proof (closing substitution already applied) and
re-derives every node from its conclusion: a leaf's closing formula
must close its sequent by one of the two axioms, and each internal
node's children must be exactly the premises the named rule produces
from the conclusion and the recorded quantifier witness.  A proof is a DAG: a ground search reuses the node
of a sequent it has proved, so premises may share a node, whose sequent
matches each of them as a multiset.  Each distinct node is checked
once, and the walk keeps an explicit stack.  The walk shares no state
with the search; it only reads the rule table, through `lht.rule_of`,
so a node's named rule must be the one its principal's shape gives.

Quantifier nodes are checked against the free-variable/skolemized rule
forms: the premise must hold the principal's body with the recorded
witness substituted for the binder, as the search builds it, and skolem
witnesses must come from the reserved symbol namespace.
"""

from __future__ import annotations

from collections import Counter

from .lht import EIGEN, ProofNode, _quantifier_premise, rule_of
from .terms import SKOLEM_PREFIX, Formula, Fun, Neg, substitute


class ProofError(AssertionError):
    pass


def _remove_one(items: list, target: Formula) -> list:
    for i, f in enumerate(items):
        if f == target:
            return items[:i] + items[i + 1 :]
    raise ProofError(f"principal formula {target} not in sequent side")


def _multiset_match(expected: list, actual: list) -> None:
    """Equal as multisets."""
    if len(expected) != len(actual):
        raise ProofError(f"premise size mismatch: {len(expected)} vs {len(actual)}")
    missing = Counter(expected) - Counter(actual)
    if missing:
        raise ProofError(f"premise formula {next(iter(missing))} not found")


def check_proof(root: ProofNode) -> None:
    """Raises ProofError unless the DAG is a valid derivation."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        _check_node(node)
        for child in reversed(node.children):
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)


def _check_node(node: ProofNode) -> None:
    """Raises ProofError unless node follows from its children's sequents."""
    left, right = list(node.left), list(node.right)

    if node.rule in ("axiom1", "axiom2"):
        g = node.closing
        if g is None:
            raise ProofError("axiom leaf without closing formula")
        if g not in left:
            raise ProofError(f"axiom formula {g} not on the left")
        if node.rule == "axiom1" and g not in right:
            raise ProofError(f"axiom formula {g} not on the right")
        if node.rule == "axiom2" and Neg(g) not in left:
            raise ProofError(f"axiom complement ~{g} not on the left")
        return

    if node.principal is None:
        raise ProofError(f"{node.rule} node without principal formula")
    for pol in (1, 0):
        hit = rule_of(node.principal, pol)
        if hit is not None and hit[0].id == node.rule:
            break
    else:
        raise ProofError(f"{node.rule} is not a rule for principal {node.principal}")
    rule, parts = hit
    if rule.pol == 1:
        l0, r0 = _remove_one(left, node.principal), right
    else:
        l0, r0 = left, _remove_one(right, node.principal)

    if rule.premises is None:
        x, body = parts
        if node.witness is None:
            raise ProofError(f"{node.rule} node lacks a witness")
        if rule.kind == EIGEN:
            if not (isinstance(node.witness, Fun) and node.witness.sym.startswith(SKOLEM_PREFIX)):
                raise ProofError(f"{node.rule} witness {node.witness} is not a skolem term")
        adds = _quantifier_premise(rule, node.principal, substitute(body, x, node.witness))
    else:
        adds = rule.premises(*parts)

    if len(adds) != len(node.children):
        raise ProofError(
            f"{node.rule} expects {len(adds)} premises, proof has {len(node.children)}"
        )
    for (la, ra), child in zip(adds, node.children):
        _multiset_match(la + l0, list(child.left))
        _multiset_match(ra + r0, list(child.right))
