import re
from dataclasses import replace

import pytest

from hatprove.frontend import parse_native_formula
from hatprove.lht import LhtSearch, ProofNode, _freeze
from hatprove import proofcheck
from hatprove.proofcheck import ProofError, check_proof
from hatprove.terms import SKOLEM_PREFIX, And, Atom, Fun, Imp, Or, con
from support import schwichtenberg

p, q = Atom("p"), Atom("q")


def _proof(f):
    proof = LhtSearch(1).first_proof((), (f,))
    check_proof(proof)
    return proof


def test_shared_premise_node_is_checked_once(monkeypatch):
    # both premises of r8 are |- p => p, and the second reuses the
    # first's node
    proof = _proof(And(Imp(p, p), Imp(p, p)))
    shared = proof.children[0]
    assert proof.rule == "r8" and proof.children[1] is shared
    assert proof.rule_applications() == 3
    checked = []
    check_node = proofcheck._check_node
    monkeypatch.setattr(proofcheck, "_check_node", lambda n: checked.append(n) or check_node(n))
    check_proof(proof)
    # the root, the shared r13 node and its two leaves
    assert len(checked) == 4
    assert len({id(n) for n in checked}) == 4


def test_shared_nodes_print_and_compare_once():
    # Schwichtenberg 9: 6,630 distinct nodes, 67,377 rule applications
    # read as a tree, which would print as 138 million characters
    search = LhtSearch(1)
    proof = search.first_proof((), (parse_native_formula(schwichtenberg(9)),))
    assert proof.rule_applications() == 67377
    text = repr(proof)
    assert len(text) < 2_000_000
    # each distinct node is written out once, and named where it recurs
    assert text.count("=ProofNode(") == 6630 and re.search(r"#\d+#", text)
    frozen = _freeze(proof, search.bnd)
    assert frozen is not proof and frozen == proof
    # freezing keeps the DAG: each shared node is frozen once
    seen, stack = set(), [frozen]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    assert len(seen) == 6630
    # a copy with one changed leaf shares every other node with the proof
    path = [proof]
    while path[-1].children:
        path.append(path[-1].children[-1])
    leaf = path.pop()
    changed = replace(leaf, rule="axiom2" if leaf.rule == "axiom1" else "axiom1")
    for node in reversed(path):
        changed = replace(node, children=node.children[:-1] + (changed,))
    assert changed != proof and proof != changed
    assert changed == replace(changed, children=changed.children)


def test_rejects_invalid_shared_premise_node():
    proof = _proof(And(Imp(p, p), Imp(p, p)))
    shared = proof.children[0]
    bad = replace(shared, children=shared.children[:1])
    with pytest.raises(ProofError, match="expects 2 premises"):
        check_proof(replace(proof, children=(bad, bad)))


def test_rejects_unknown_rule():
    proof = _proof(Or(Imp(p, q), Imp(q, p)))
    with pytest.raises(ProofError, match="r99 is not a rule"):
        check_proof(replace(proof, rule="r99"))


def test_rejects_rule_that_does_not_fit_the_principal():
    proof = _proof(And(Imp(p, p), Imp(q, q)))
    assert proof.rule == "r8"
    with pytest.raises(ProofError, match="r13 is not a rule"):
        check_proof(replace(proof, rule="r13"))


def test_rejects_missing_premise():
    proof = _proof(Imp(p, p))
    assert proof.rule == "r13" and len(proof.children) == 2
    with pytest.raises(ProofError, match="expects 2 premises"):
        check_proof(replace(proof, children=proof.children[:1]))


def test_rejects_premise_missing_a_formula():
    proof = _proof(Imp(p, p))
    first = proof.children[0]
    short = replace(first, left=first.left[1:])
    with pytest.raises(ProofError, match="size mismatch"):
        check_proof(replace(proof, children=(short,) + proof.children[1:]))


def test_rejects_axiom_pair_outside_the_sequent():
    proof = _proof(Imp(p, p))
    leaf = proof.children[0]
    assert leaf.rule == "axiom1" and leaf.closing == p
    with pytest.raises(ProofError, match="not on the left"):
        check_proof(replace(leaf, closing=q))


def test_rejects_eigen_witness_that_is_not_skolem():
    f = parse_native_formula("all X: (p(X) => p(X))", close=True)
    proof = _proof(f)
    assert proof.rule == "r21"
    with pytest.raises(ProofError, match="not a skolem term"):
        check_proof(replace(proof, witness=con("a")))
    # a skolem witness the premise was not built from fails the premise match
    forged = Fun(SKOLEM_PREFIX + "forged", ())
    with pytest.raises(ProofError, match="not found"):
        check_proof(replace(proof, witness=forged))


def test_rejects_premise_equal_only_modulo_bound_renaming():
    # the premise of r2 must hold the disjunct itself, not an alpha-variant
    all_x = parse_native_formula("all X: p(X)")
    all_y = parse_native_formula("all Y: p(Y)")
    assert all_x != all_y
    leaf = ProofNode((q,), (all_y, q), "axiom1", closing=q)
    node = ProofNode((q,), (Or(all_x, q),), "r2", Or(all_x, q), (leaf,))
    check_proof(leaf)
    with pytest.raises(ProofError, match="not found"):
        check_proof(node)
    check_proof(replace(node, children=(replace(leaf, right=(all_x, q)),)))
