from hatprove.embedding import embed, hos_instances, ht_axioms, sqht_instances
from hatprove.frontend import parse_native_formula, to_native
from hatprove.lj import prove_lj
from hatprove.oracle import ht_valid_prop
from hatprove.terms import Atom, Exists, Forall, Imp, Neg, Or, free_vars, signature
from hatprove.verdicts import Verdict
from support import alpha_equal

p, q = Atom("p"), Atom("q")
F1 = Or(Imp(p, q), Imp(q, p))
F2 = parse_native_formula("ex Y: all X: (p(Y) => p(X))", close=True)


def test_signatures():
    assert signature(F1)[0] == [("p", 0), ("q", 0)]
    assert signature(F2)[0] == [("p", 1)]
    f = parse_native_formula("p(a,b) , q")
    assert signature(f)[0] == [("p", 2), ("q", 0)]


def test_hos_count_for_two_propositions():
    assert len(hos_instances(signature(F1)[0])) == 6


def test_hos_single_unary_predicate():
    axioms = hos_instances([("p", 1)])
    assert len(axioms) == 1
    # the single instance pairs the negated literal with the atom
    expected = parse_native_formula("all X1: all Y1: (~ p(X1) ; ((~ p(X1) => p(Y1)) ; ~ p(Y1)))", close=False)
    assert alpha_equal(axioms[0], expected, free_bijection=True)


def test_hos_single_proposition_weak_lem_support():
    axioms = hos_instances([("p", 0)])
    assert len(axioms) == 1
    assert axioms[0] == Or(Neg(p), Or(Imp(Neg(p), p), Neg(p)))


def test_sqht_unary():
    axioms = sqht_instances([("p", 1)])
    assert len(axioms) == 2
    pos = parse_native_formula("ex X: (p(X) => all Y: p(Y))")
    neg = parse_native_formula("ex X: (~ p(X) => all Y: ~ p(Y))")
    assert alpha_equal(axioms[0], pos, free_bijection=True)
    assert alpha_equal(axioms[1], neg, free_bijection=True)


def test_sqht_empty_for_propositions():
    assert sqht_instances(signature(F1)[0]) == []


def test_sqht_binary_predicate():
    axioms = sqht_instances([("r", 2)])
    assert len(axioms) == 2
    f = axioms[0]
    assert isinstance(f, Exists) and isinstance(f.body, Exists)


def test_axiom_counts_formula():
    # |hos| = 2|P|^2 - |P|, |sqht| = 2 * (# higher-arity predicates)
    for sig, hos_n, sqht_n in [
        ([("p", 0), ("q", 0)], 6, 0),
        ([("p", 1)], 1, 2),
        ([("p", 0)], 1, 0),
        ([("p", 2), ("q", 0)], 6, 2),
    ]:
        assert len(hos_instances(sig)) == hos_n == 2 * len(sig) ** 2 - len(sig)
        assert len(sqht_instances(sig)) == sqht_n


def test_all_axioms_closed():
    for sig in ([("p", 0), ("q", 0)], [("p", 1)], [("r", 2), ("q", 0)]):
        for ax in hos_instances(sig) + sqht_instances(sig):
            assert free_vars(ax) == set(), to_native(ax)


def test_embed_f1_provable_intuitionistically():
    goal = embed(F1)
    assert len(ht_axioms(F1)) == 6
    assert prove_lj(goal, timeout=15).verdict is Verdict.PROVED
    # F1 alone is not intuitionistically provable
    assert prove_lj(F1).verdict is Verdict.REFUTED


def test_embed_f2_provable_intuitionistically():
    assert len(ht_axioms(F2)) == 3
    assert prove_lj(embed(F2), timeout=15).verdict is Verdict.PROVED


def test_embed_trivial():
    goal = embed(Imp(p, p))
    assert isinstance(goal, Imp)
    assert len(ht_axioms(Imp(p, p))) == 1
    assert prove_lj(goal, timeout=5).verdict is Verdict.PROVED


def test_embedding_soundness_sample():
    from support import enumerate_formulas

    for f in enumerate_formulas(4):
        result = prove_lj(embed(f), timeout=0.5)
        if result.verdict is Verdict.PROVED:
            assert ht_valid_prop(f), f
