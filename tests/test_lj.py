import random

from hatprove.embedding import embed
from hatprove.frontend import parse_native_formula
from hatprove.lht import prove_lht
from hatprove.lj import prove_lj
from hatprove.oracle import ht_valid_prop
from hatprove.terms import Atom, Imp, Neg, Or
from hatprove.verdicts import Verdict
from support import enumerate_formulas, random_formula

p, q = Atom("p"), Atom("q")
F1 = Or(Imp(p, q), Imp(q, p))


def test_identity():
    assert prove_lj(Imp(p, p)).verdict is Verdict.PROVED


def test_classically_valid_non_theorems():
    assert prove_lj(F1).verdict is Verdict.REFUTED
    assert prove_lj(Or(p, Neg(p))).verdict is Verdict.REFUTED


def test_unblocked_first_order_round_refutes():
    # round 1 never reaches the free-variable cap, so every later round
    # would repeat it: drinker, independence of premise, Pelletier 18
    for text in (
        "ex Y: (p(Y) => all X: p(X))",
        "ex Y: ((ex X: p(X)) => p(Y))",
        "ex Y: all X: (p(Y) => p(X))",
    ):
        r = prove_lj(parse_native_formula(text, close=True), timeout=5)
        assert (r.verdict, r.rounds) == (Verdict.REFUTED, 1), text


def test_embedded_benchmarks_proved():
    assert prove_lj(embed(F1), timeout=15).verdict is Verdict.PROVED
    f2 = parse_native_formula("ex Y: all X: (p(Y) => p(X))", close=True)
    assert prove_lj(embed(f2), timeout=15).verdict is Verdict.PROVED


def test_intuitionistic_staples():
    cases_proved = [
        "~ ~ (p ; ~ p)",
        "(p => q) => (~ q => ~ p)",
        "((p ; q) => r) => ((p => r) , (q => r))",
        "(p , q) => (q , p)",
        "all X: (p(X) => p(X))",
        "(all X: (p(X) => q)) => ((ex X: p(X)) => q)",
    ]
    for text in cases_proved:
        f = parse_native_formula(text, close=True)
        assert prove_lj(f, timeout=10).verdict is Verdict.PROVED, text
    cases_refuted = [
        "~ p ; ~ ~ p",
        "~ ~ p => p",
        "((p => q) => p) => p",
    ]
    for text in cases_refuted:
        f = parse_native_formula(text)
        assert prove_lj(f).verdict is Verdict.REFUTED, text


def test_propositional_decision_terminates():
    for f in enumerate_formulas(5):
        result = prove_lj(f)  # no deadline: must terminate on its own
        assert result.verdict in (Verdict.PROVED, Verdict.REFUTED)


def test_inclusion_in_ht_on_corpus():
    for f in enumerate_formulas(6):
        if prove_lj(f).verdict is Verdict.PROVED:
            assert prove_lht(f).verdict is Verdict.PROVED, f


def test_embedding_soundness_random():
    rng = random.Random(5)
    for _ in range(60):
        f = random_formula(rng, rng.randint(1, 6), ("p", "q"))
        if prove_lj(embed(f), timeout=0.5).verdict is Verdict.PROVED:
            assert ht_valid_prop(f), f


def test_first_order_quantifier_interplay():
    f = parse_native_formula("((ex X: p(X)) => q) => (all X: (p(X) => q))", close=True)
    assert prove_lj(f, timeout=10).verdict is Verdict.PROVED
    g = parse_native_formula("(all X: (p(X) => q)) => ((ex X: p(X)) => q)", close=True)
    assert prove_lj(g, timeout=10).verdict is Verdict.PROVED


def test_sequents_stay_single_succedent():
    # structural by construction: the right side is one formula or none
    from hatprove.lj import LJSearch

    search = LJSearch(var_limit=2)
    gen = search.prove([p], Imp(p, q), "s", [], frozenset())
    next(gen, None)
