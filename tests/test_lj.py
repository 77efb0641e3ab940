import random

from hatprove.embedding import embed
from hatprove.frontend import parse_native_formula
from hatprove.lht import prove_lht
from hatprove import lj
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


def test_embedded_search_counts_are_unchanged(monkeypatch):
    # (formula, embedded, verdict, rounds, nodes per round): the counts of
    # the search with the use check on left disjunctions; rule_apps is
    # always 0
    cases = [
        ("~ (~ p , p)", True, Verdict.PROVED, 1, [6]),
        ("((p ; p) => p)", True, Verdict.PROVED, 1, [6]),
        ("(q => (p => q))", True, Verdict.PROVED, 1, [15]),
        ("(q => ((q => p) => p))", True, Verdict.PROVED, 1, [28]),
        ("(p ; (q ; (q => q)))", True, Verdict.PROVED, 1, [89]),
        ("((p => q) ; (q => p))", True, Verdict.PROVED, 1, [73]),
        ("ex Y: all X: (p(Y) => p(X))", True, Verdict.PROVED, 2, [111, 838]),
        ("p ; ~ p", False, Verdict.REFUTED, 1, [4]),
        ("((p => q) => p) => p", False, Verdict.REFUTED, 1, [6]),
        ("ex Y: (p(Y) => all X: p(X))", False, Verdict.REFUTED, 1, [4]),
    ]
    searches = []

    class Recorded(lj.LJSearch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searches.append(self)

    monkeypatch.setattr(lj, "LJSearch", Recorded)
    for text, embedded, verdict, rounds, nodes in cases:
        f = parse_native_formula(text, close=True)
        searches.clear()
        r = prove_lj(embed(f) if embedded else f)
        assert (r.verdict, r.rounds, r.rule_apps) == (verdict, rounds, 0), text
        assert [s.nodes for s in searches] == nodes, text


def test_instance_equal_to_a_left_formula_is_a_repeat(monkeypatch):
    # an instance shares its body's inner binders, so a second instance of
    # a quantifier whose body ignores its binder equals the first: the
    # left set and the loop check see the repeat, and each round ends.
    # With renamed inner binders every instance was new, and both goals
    # timed out at 5 s after 17 and 20 rounds
    cases = [
        ("(~ ((all X1: (all X2: (r => r))) ; ((r , r) , r)) ; r)", 3, [6, 10, 14]),
        ("(all X1: ((ex X2: (r , r)) ; ~ (all X2: (r => (ex X3: r)))))", 2, [10, 12]),
    ]
    searches = []

    class Recorded(lj.LJSearch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searches.append(self)

    monkeypatch.setattr(lj, "LJSearch", Recorded)
    for text, rounds, nodes in cases:
        f = parse_native_formula(text, close=True)
        searches.clear()
        r = prove_lj(f, timeout=5)
        assert (r.verdict, r.rounds) == (Verdict.REFUTED, rounds), text
        assert [s.nodes for s in searches] == nodes, text
        assert prove_lht(f, timeout=5).verdict is Verdict.REFUTED, text


def test_unused_left_disjunction_skips_its_right_premise(monkeypatch):
    # twelve disjunctions the proof of s => s never touches: without the
    # use check every one of the 2^12 branches repeats that proof
    searches = []

    class Recorded(lj.LJSearch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searches.append(self)

    monkeypatch.setattr(lj, "LJSearch", Recorded)
    disjunctions = " , ".join(f"(p{i} ; q{i})" for i in range(1, 13))
    f = parse_native_formula(f"({disjunctions}) => (s => s)")
    assert prove_lj(f).verdict is Verdict.PROVED
    assert sum(s.nodes for s in searches) <= 40


def test_used_left_disjunction_still_needs_both_premises():
    proved = parse_native_formula("((p ; q) , (p => r) , (q => r)) => r")
    assert prove_lj(proved).verdict is Verdict.PROVED
    # the proof of the left premise uses p, so the right one must run
    refuted = parse_native_formula("((p ; q) , (p => r)) => r")
    assert prove_lj(refuted).verdict is Verdict.REFUTED


def test_fresh_disjunction_on_the_left_changes_no_verdict():
    r, s = Atom("r"), Atom("s")
    for f in enumerate_formulas(5):
        assert prove_lj(Imp(Or(r, s), f)).verdict is prove_lj(f).verdict, f


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
