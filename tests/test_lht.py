import random
import time
from pathlib import Path

from hatprove.frontend import (
    add_equality_axioms,
    assemble_goal,
    parse_native_formula,
    parse_problem,
)
from hatprove import lht
from hatprove.lht import (
    EIGEN,
    FREEVAR,
    PROP,
    RULES,
    LhtSearch,
    _freeze,
    _quantifier_premise,
    prove_lht,
    rule_of,
)
from hatprove.lj import prove_lj
from hatprove.oracle import (
    HERE,
    MAX_DOMAIN,
    classical_valid_prop,
    eval_ht,
    ht_countermodel_fo,
    ht_valid_prop,
)
from hatprove.proofcheck import check_proof
from hatprove.terms import (
    And,
    Atom,
    Exists,
    Forall,
    Iff,
    Imp,
    Neg,
    Or,
    Var,
    con,
    substitute,
)
from hatprove.verdicts import Verdict
from support import (
    enumerate_formulas,
    horn,
    ht_holds,
    random_fo_formula,
    random_formula,
    schwichtenberg,
)

p, q = Atom("p"), Atom("q")
F1 = Or(Imp(p, q), Imp(q, p))
X = Var(3001, "X")
MINI = Path(__file__).parent.parent / "problems" / "mini"


def pa(t):
    return Atom("p", (t,))


# ============================================================
# Rule table
# ============================================================


def test_imp_right_two_premises():
    rule, parts = rule_of(Imp(p, q), 0)
    assert rule.id == "r13"
    assert rule.premises(*parts) == [([p], [q]), ([Neg(q)], [Neg(p)])]


def test_and_left_single_premise():
    rule, parts = rule_of(And(p, q), 1)
    assert rule.id == "r1"
    assert rule.premises(*parts) == [([p, q], [])]


def test_neg_or_left():
    rule, parts = rule_of(Neg(Or(p, q)), 1)
    assert rule.id == "r4"
    assert rule.premises(*parts) == [([Neg(p), Neg(q)], [])]


def test_neg_or_right_corrected():
    # the corrected rule puts the negations on the right of both premises
    rule, parts = rule_of(Neg(Or(p, q)), 0)
    assert rule.id == "r11"
    assert rule.premises(*parts) == [([], [Neg(p)]), ([], [Neg(q)])]


def test_imp_left_three_premises():
    rule, parts = rule_of(Imp(p, q), 1)
    assert rule.id == "r14"
    assert rule.premises(*parts) == [([Neg(p)], []), ([], [p, Neg(q)]), ([q], [])]


def test_forall_left_retains_principal():
    f = Forall(X, pa(X))
    rule, (x, body) = rule_of(f, 1)
    assert rule.id == "r25"
    assert rule.kind == FREEVAR      # instantiated with a new variable
    inst = substitute(body, x, Var(2001, "Y"))
    (left_add, right_add), = _quantifier_premise(rule, f, inst)
    assert right_add == []
    assert left_add[1] is f          # retained original
    assert left_add[0] == pa(Var(2001, "Y"))


def test_instance_keeps_the_inner_binder():
    # r25 substitutes a fresh variable for X and shares the body's own
    # quantifier over Y, so proofcheck recognises the instance with ==
    Y = Var(3002, "Y")
    f = Forall(X, Forall(Y, Atom("p", (X, Y))))
    r = prove_lht(Imp(f, Atom("p", (con("a"), con("b")))), timeout=5)
    assert r.verdict is Verdict.PROVED
    check_proof(r.proof)
    stack, insts = [r.proof], []
    while stack:
        node = stack.pop()
        stack += node.children
        if node.rule == "r25" and node.principal == f:
            insts.append(node.children[0].left[0])
    assert insts and all(inst.var is Y for inst in insts)


def test_forall_right_skolemizes():
    f = Forall(X, pa(X))
    rule, _ = rule_of(f, 0)
    assert rule.id == "r21"
    assert rule.kind == EIGEN


def test_literal_has_no_rule():
    assert rule_of(p, 0) is None
    assert rule_of(Neg(p), 1) is None  # negated atom is axiom material


def test_every_rule_has_one_shape():
    plain = [And(p, q), Or(p, q), Imp(p, q), Iff(p, q), Forall(X, pa(X)), Exists(X, pa(X))]
    found = {}
    for f in plain + [Neg(g) for g in plain] + [Neg(Neg(p))]:
        for pol in (0, 1):
            rule, _ = rule_of(f, pol)
            assert rule.id not in found, rule.id
            found[rule.id] = (f, pol)
    assert len(found) == len(RULES) == 26
    assert set(found) == {r.id for r in RULES}
    for literal in (p, Neg(p), pa(X), Neg(pa(X))):
        for pol in (0, 1):
            assert rule_of(literal, pol) is None


# ============================================================
# Axiom closure
# ============================================================


def _close(left, right, var_limit=1):
    search = LhtSearch(var_limit)
    return next(search._closures(list(left), list(right)), None), search


def test_axiom1_identity():
    leaf, _ = _close([p], [p])
    assert leaf is not None and leaf.rule == "axiom1"


def test_axiom2_contradiction():
    leaf, _ = _close([p, Neg(p)], [])
    assert leaf is not None and leaf.rule == "axiom2"


def test_axiom1_unifies():
    leaf, search = _close([pa(X)], [pa(con("a"))])
    assert leaf is not None
    # bindings are undone once the closure generator is exhausted


def test_axiom1_negated_literal():
    leaf, _ = _close([Neg(q)], [Neg(q)])
    assert leaf is not None and leaf.rule == "axiom1"


def test_axiom_sign_mismatch():
    leaf, _ = _close([Neg(p)], [p])
    assert leaf is None


# ============================================================
# Sequent proving
# ============================================================


def _leaves(node):
    return sum(map(_leaves, node.children)) if node.children else 1


def test_f1_proof_matches_reference_tree():
    proof = LhtSearch(1).first_proof((), (F1,))
    assert proof is not None
    check_proof(proof)
    # disjunction split, then three implication-right applications
    assert proof.rule == "r2"
    assert proof.rule_applications() == 4
    assert _leaves(proof) == 4
    top = proof.children[0]
    assert top.rule == "r13"
    assert all(c.rule == "r13" for c in top.children)
    leaf_kinds = [leaf.rule for c in top.children for leaf in c.children]
    assert leaf_kinds == ["axiom1", "axiom2", "axiom2", "axiom1"]


def test_pelletier18_needs_three_variables():
    f2 = parse_native_formula("ex Y: all X: (p(Y) => p(X))", close=True)
    assert LhtSearch(2).first_proof((), (f2,)) is None
    proof = LhtSearch(3).first_proof((), (f2,))
    assert proof is not None
    check_proof(proof)


def test_lem_fails_at_any_limit():
    for limit in (1, 3, 5):
        assert LhtSearch(limit).first_proof((), (Or(p, Neg(p)),)) is None


def test_axiom_close_returns_extended_substitution():
    search = LhtSearch(1)
    closures = search._closures((pa(X),), (pa(con("a")),))
    leaf = next(closures)
    assert leaf.rule == "axiom1"
    # the closing unifier holds while the closure is suspended
    assert search.bnd.resolve_term(X) == con("a")
    closures.close()
    assert search.bnd.mark() == 0
    assert _close([p], [q])[0] is None
    # syntactic identity closes without binding anything
    f = Imp(p, q)
    leaf, search = _close([f], [f])
    assert leaf is not None
    assert search.bnd.mark() == 0


def _de_bruijn(n):
    m = 2 * n + 1
    everything = "(" + " , ".join(f"p{i}" for i in range(1, m + 1)) + ")"
    cycle = [f"((p{i} <=> p{i % m + 1}) => {everything})" for i in range(1, m + 1)]
    return "(" + " , ".join(cycle) + f") => {everything}"


def test_ground_search_counts_are_unchanged():
    # (formula, nodes, rule applications of the proof or None).  Rule
    # applications are those of the general search; nodes are fewer on
    # Schwichtenberg, whose sequents recur and, axiom leaves aside, are
    # proved once each (2,133 and 20,617 nodes without the table of
    # settled sequents)
    cases = [
        (horn(22), 855, 322),
        (horn(22, gap=11), 891, None),
        (schwichtenberg(5), 402, 769),
        (_de_bruijn(1), 420, 298),
        (_de_bruijn(2), 1473, 1095),
        (_de_bruijn(3), 3312, 2534),
        (schwichtenberg(7), 1644, 7289),
    ]
    for text, nodes, apps in cases:
        search = LhtSearch(1)
        proof = next(search.prove((), (parse_native_formula(text),), "s", []), None)
        assert search.ground, text
        assert search.nodes == nodes, text
        if apps is None:
            assert proof is None, text
            continue
        assert proof.rule_applications() == apps, text
        check_proof(proof)
        # nothing was bound, so freezing would not change the proof
        assert _freeze(proof, search.bnd) == proof
    search = LhtSearch(1)
    f2 = parse_native_formula("ex Y: all X: (p(Y) => p(X))", close=True)
    next(search.prove((), (f2,), "s", []), None)
    assert search.ground is False


def test_one_premise_rules_come_before_branching_rules():
    r = Atom("r")
    # each sequent also holds a formula that splits (r9, r8, r9), but an
    # equivalence is expanded and an existential skolemized first
    cases = [
        ((Iff(p, q), Or(p, q)), (p, q), "r15"),
        ((), (And(q, r), Iff(p, p)), "r16"),
        ((Exists(X, pa(X)), Or(q, q)), (q,), "r22"),
    ]
    for left, right, first in cases:
        proof = LhtSearch(1).first_proof(left, right)
        check_proof(proof)
        assert proof.rule == first, (left, right)


def test_settled_sequents_survive_key_collisions(monkeypatch):
    # every premise gets the same key, so each lookup meets some other
    # sequent's proof and must fall back to proving its own
    monkeypatch.setattr(lht, "_premise_keys", lambda key, pol, principal, adds: [0] * len(adds))
    cases = [
        (horn(22), 322),
        (horn(22, gap=11), None),
        (schwichtenberg(5), 769),
        (_de_bruijn(1), 298),
    ]
    for text, apps in cases:
        proof = LhtSearch(1).first_proof((), (parse_native_formula(text),))
        # compare counts, not nodes: a wrongly shared DAG prints as a tree
        assert (None if proof is None else proof.rule_applications()) == apps, text
        if proof is not None:
            check_proof(proof)


def test_terms_deeper_than_the_recursion_limit():
    # terms hash and compare with an explicit stack
    deep = "p(" + "f(" * 5000 + "a" + ")" * 5001
    f = parse_native_formula(f"{deep} => {deep}")
    assert prove_lht(f, timeout=10).verdict is Verdict.PROVED


def test_skolem_only_formula():
    f = parse_native_formula("all X: (p(X) => p(X))", close=True)
    assert prove_lht(f).verdict is Verdict.PROVED


# ============================================================
# Verdicts on the benchmark formulas
# ============================================================


def test_benchmark_verdicts():
    f2 = parse_native_formula("ex Y: all X: (p(Y) => p(X))", close=True)
    syn971 = parse_native_formula("ex Y: (ex X: p(X) => p(Y))", close=True)
    assert prove_lht(F1).verdict is Verdict.PROVED
    assert prove_lht(f2, timeout=10).verdict is Verdict.PROVED
    assert prove_lht(syn971, timeout=10).verdict is Verdict.PROVED
    assert prove_lht(Or(p, Neg(p))).verdict is Verdict.REFUTED


def test_syj_style_refutations_are_fast():
    cases = [
        "~ ~ p => p",
        "((p => q) => p) => p",
        "(~ q => ~ p) => (p => q)",
        "((p ; ~ p) , (q ; ~ q)) => ((p , q) ; (~ p ; ~ q))",
    ]
    for text in cases:
        f = parse_native_formula(text)
        start = time.monotonic()
        result = prove_lht(f, timeout=5)
        elapsed = time.monotonic() - start
        assert not ht_valid_prop(f) or result.verdict is Verdict.PROVED
        if not ht_valid_prop(f):
            assert result.verdict is Verdict.REFUTED
            assert elapsed < 1.0


def test_quantifier_shift_is_never_proved():
    f = parse_native_formula(
        "(all X: ex Y: p(X,Y)) => (ex Y: all X: p(X,Y))", close=True
    )
    result = prove_lht(f, timeout=1.0)
    assert result.verdict is not Verdict.PROVED


def test_quantifier_shift_refuted_by_checked_countermodel():
    f = parse_native_formula(
        "(all X: ex Y: p(X,Y)) => (ex Y: all X: p(X,Y))", close=True
    )
    result = prove_lht(f, timeout=2.0)
    assert result.verdict is Verdict.REFUTED
    assert result.countermodel is not None
    assert result.countermodel.size == 2
    assert not eval_ht(f, result.countermodel, HERE)


def test_no_countermodel_for_proved_goals():
    # a countermodel for any of these would make a Theorem unsound
    goals = [
        parse_native_formula(text, close=True)
        for text in [
            "ex Y: all X: (p(Y) => p(X))",
            "ex Y: (ex X: p(X) => p(Y))",
            "ex Y: (p(Y) => all X: p(X))",
        ]
    ]
    proved = 0
    for path in sorted(MINI.glob("*.p")):
        prob = parse_problem(path.read_bytes(), "tptp", name=path.stem, axiom_root=MINI)
        goal = add_equality_axioms(assemble_goal(prob))
        if prove_lht(goal, timeout=2.0).proved:
            proved += 1
            goals.append(goal)
    assert proved == 23
    for goal in goals:
        for size in range(1, MAX_DOMAIN + 1):
            assert ht_countermodel_fo(goal, size) is None, (goal, size)


def test_first_order_soundness_of_lht_and_lj():
    # no Theorem has a finite countermodel, every countermodel lht
    # attaches is false at `here` under the reference evaluator, and lj
    # (intuitionistic, so weaker than HT) never proves what lht refutes
    rng = random.Random(7)
    theorems = models = 0
    for _ in range(100):
        f = random_fo_formula(rng, rng.randint(3, 8))
        by_lht = prove_lht(f, timeout=0.2)
        by_lj = prove_lj(f, timeout=0.2)
        for name, result in (("lht", by_lht), ("lj", by_lj)):
            if result.proved:
                theorems += 1
                for size in range(1, MAX_DOMAIN + 1):
                    assert ht_countermodel_fo(f, size) is None, (name, f, size)
        if by_lht.countermodel is not None:
            models += 1
            assert not ht_holds(f, by_lht.countermodel, HERE), f
        assert not (by_lj.proved and by_lht.verdict is Verdict.REFUTED), f
    assert theorems and models


def test_proofs_validate_and_match_oracle_small():
    rng = random.Random(23)
    for _ in range(300):
        f = random_formula(rng, rng.randint(1, 9), ("p", "q"))
        result = prove_lht(f)
        assert result.verdict in (Verdict.PROVED, Verdict.REFUTED)
        assert (result.verdict is Verdict.PROVED) == ht_valid_prop(f), f
        if result.proved:
            check_proof(result.proof)


def test_propositional_termination_without_deadline():
    for f in enumerate_formulas(5):
        result = prove_lht(f)  # no timeout given
        assert result.verdict in (Verdict.PROVED, Verdict.REFUTED)


def test_first_order_proofs_checked():
    for text in [
        "(all X: (p(X) => q)) => ((ex X: p(X)) => q)",
        "((ex X: p(X)) => q) => (all X: (p(X) => q))",
        "(all X: p(X)) => p(a)",
        "p(a) => (ex X: p(X))",
        "ex Y: (p(Y) => all X: p(X))",
    ]:
        f = parse_native_formula(text, close=True)
        result = prove_lht(f, timeout=10)
        assert result.proved, text
        check_proof(result.proof)


def test_size_decreases_to_premise_replacements():
    from hatprove.terms import formula_size

    f_by_shape = {
        (And, False): And(p, Or(p, q)),
        (Or, False): Or(And(p, q), q),
        (Imp, False): Imp(Or(p, q), q),
        (And, True): Neg(And(Or(p, q), q)),
        (Or, True): Neg(Or(p, And(p, q))),
        (Imp, True): Neg(Imp(p, Or(p, q))),
        (Neg, True): Neg(Neg(Or(p, q))),
    }
    for rule in RULES:
        # the equivalence rules duplicate their operands
        if rule.kind != PROP or rule.conn is Iff:
            continue
        f = f_by_shape[(rule.conn, rule.negated)]
        found, parts = rule_of(f, rule.pol)
        assert found is rule
        for left_add, right_add in rule.premises(*parts):
            for g in left_add + right_add:
                assert formula_size(g) < formula_size(f), rule.id
