import random
import time
from pathlib import Path

from hatprove.frontend import (
    add_equality_axioms,
    assemble_goal,
    parse_native_formula,
    parse_problem,
)
from hatprove.lht import (
    LhtSearch,
    _freeze,
    prove_lht,
    rule_lookup,
)
from hatprove.oracle import (
    HERE,
    MAX_DOMAIN,
    classical_valid_prop,
    eval_ht_fo,
    ht_countermodel_fo,
    ht_valid_prop,
)
from hatprove.proofcheck import check_proof
from hatprove.terms import (
    And,
    Atom,
    Exists,
    Forall,
    Imp,
    Neg,
    Or,
    Var,
    con,
)
from hatprove.verdicts import Verdict
from support import enumerate_formulas, random_formula

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
    app = rule_lookup(Imp(p, q), 0)
    assert app.rule == "r13"
    assert app.premises == [([p], [q]), ([Neg(q)], [Neg(p)])]


def test_and_left_single_premise():
    app = rule_lookup(And(p, q), 1)
    assert app.rule == "r1"
    assert app.premises == [([p, q], [])]


def test_neg_or_left():
    app = rule_lookup(Neg(Or(p, q)), 1)
    assert app.rule == "r4"
    assert app.premises == [([Neg(p), Neg(q)], [])]


def test_neg_or_right_corrected():
    # the corrected rule puts the negations on the right of both premises
    app = rule_lookup(Neg(Or(p, q)), 0)
    assert app.rule == "r11"
    assert app.premises == [([], [Neg(p)]), ([], [Neg(q)])]


def test_imp_left_three_premises():
    app = rule_lookup(Imp(p, q), 1)
    assert app.rule == "r14"
    assert app.premises == [([Neg(p)], []), ([], [p, Neg(q)]), ([q], [])]


def test_forall_left_retains_principal():
    f = Forall(X, pa(X))
    app = rule_lookup(f, 1)
    assert app.rule == "r25"
    (left_add, right_add), = app.premises
    assert right_add == []
    assert left_add[1] is f          # retained original
    assert isinstance(left_add[0], Atom)
    assert app.new_var is not None


def test_forall_right_skolemizes():
    f = Forall(X, pa(X))
    app = rule_lookup(f, 0)
    assert app.rule == "r21"
    assert app.skolem is not None


def test_literal_has_no_rule():
    import pytest

    with pytest.raises(LookupError):
        rule_lookup(p, 0)
    with pytest.raises(LookupError):
        rule_lookup(Neg(p), 1)  # negated atom is axiom material


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


def test_f1_proof_matches_reference_tree():
    proof = LhtSearch(1).first_proof((), (F1,))
    assert proof is not None
    check_proof(proof)
    # disjunction split, then three implication-right applications
    assert proof.rule == "r2"
    assert proof.rule_applications() == 4
    assert proof.leaves() == 4
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
    assert len(search.bnd) == 0
    assert _close([p], [q])[0] is None
    # syntactic identity closes without binding anything
    f = Imp(p, q)
    leaf, search = _close([f], [f])
    assert leaf is not None
    assert len(search.bnd) == 0


def _horn(n, gap=None):
    links = [f"(p{i} => p{i + 1})" for i in range(n) if i != gap]
    return f"(p0 , {' , '.join(links)}) => p{n}"


def _schwichtenberg(n):
    links = [f"(p{i} => (p{i} => p{i - 1}))" for i in range(n, 0, -1)]
    return f"(p{n} , {' , '.join(links)}) => p0"


def _de_bruijn(n):
    m = 2 * n + 1
    everything = "(" + " , ".join(f"p{i}" for i in range(1, m + 1)) + ")"
    cycle = [f"((p{i} <=> p{i % m + 1}) => {everything})" for i in range(1, m + 1)]
    return "(" + " , ".join(cycle) + f") => {everything}"


def test_ground_search_counts_are_unchanged():
    # (formula, nodes, rule applications of the proof or None): the
    # counts of the general search, which the ground path must repeat
    cases = [
        (_horn(22), 855, 322),
        (_horn(22, gap=11), 891, None),
        (_schwichtenberg(5), 2133, 769),
        (_de_bruijn(1), 698, 475),
        (_schwichtenberg(7), 20617, 7289),
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
    assert not eval_ht_fo(f, result.countermodel, HERE)


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
    from hatprove.lht import RULES, _SHAPES, _propositional_premises
    from hatprove.terms import formula_size

    f_by_shape = {
        "and": And(p, Or(p, q)),
        "or": Or(And(p, q), q),
        "imp": Imp(Or(p, q), q),
        "neg_and": Neg(And(Or(p, q), q)),
        "neg_or": Neg(Or(p, And(p, q))),
        "neg_imp": Neg(Imp(p, Or(p, q))),
        "neg_neg": Neg(Neg(Or(p, q))),
    }
    for rule in RULES:
        if rule.shape not in f_by_shape or rule.kind not in ("nonsplit", "split"):
            continue
        f = f_by_shape[rule.shape]
        parts = _SHAPES[rule.shape](f)
        for left_add, right_add in _propositional_premises(rule, parts):
            for g in left_add + right_add:
                assert formula_size(g) < formula_size(f), rule.id
