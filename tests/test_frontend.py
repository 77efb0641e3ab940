import random

import pytest

from hatprove.frontend import (
    ParseError,
    add_equality_axioms,
    assemble_goal,
    equality_axioms,
    parse_native_formula,
    parse_problem,
    to_native,
)
from hatprove.lht import prove_lht
from hatprove.terms import (
    And,
    Atom,
    Exists,
    Forall,
    Fun,
    Iff,
    Imp,
    Neg,
    Or,
    con,
    signature,
)
from hatprove.verdicts import Verdict
from support import alpha_equal, horn, random_fo_formula, random_formula

p, q, r = Atom("p"), Atom("q"), Atom("r")


# ============================================================
# TPTP parsing
# ============================================================


def test_smallest_problem():
    prob = parse_problem("fof(a1,axiom,p).\nfof(c,conjecture,p).")
    assert prob.axioms == [p]
    assert prob.conjecture == p
    assert not prob.uses_equality


def test_roles():
    prob = parse_problem(
        "fof(a,axiom,p). fof(h,hypothesis,q). fof(l,lemma,r). fof(c,conjecture,p)."
    )
    assert prob.axioms == [p, q, r]


def test_unsupported_role():
    with pytest.raises(ParseError, match="unsupported role"):
        parse_problem("fof(c, negated_conjecture, p).")


def test_quantifier_parse():
    prob = parse_problem("fof(c,conjecture, ![X]: (p(X) => p(X))).")
    f = prob.conjecture
    assert isinstance(f, Forall)
    assert isinstance(f.body, Imp)
    assert f.body.left == Atom("p", (f.var,))


def test_quantifier_list_and_exists():
    prob = parse_problem("fof(c,conjecture, ?[X,Y]: q(X,Y)).")
    f = prob.conjecture
    assert isinstance(f, Exists) and isinstance(f.body, Exists)


def test_free_variables_universally_closed():
    prob = parse_problem("fof(c,conjecture, p(X) => p(X)).")
    assert isinstance(prob.conjecture, Forall)


def test_equality_detected():
    prob = parse_problem("fof(c,conjecture, a = b => b = a).")
    assert prob.uses_equality
    prob2 = parse_problem("fof(c,conjecture, a != b | a = b).")
    assert isinstance(prob2.conjecture, Or)
    assert isinstance(prob2.conjecture.left, Neg)


def test_arity_clash():
    with pytest.raises(ParseError, match="arity clash"):
        parse_problem("fof(a,axiom,p(a)). fof(c,conjecture,p(a,b)).")


def test_arity_clash_checks_constants_at_the_symbol():
    # a constant is a function of no arguments, and the clash is
    # reported where the clashing symbol stands
    with pytest.raises(ParseError, match="arity clash for function 'f'") as e:
        parse_native_formula("q(f) => q(f(a))")
    assert (e.value.line, e.value.col) == (1, 11)
    with pytest.raises(ParseError, match="arity clash for function 'f'") as e:
        parse_problem("fof(a, axiom, q(f(a))).\nfof(c, conjecture, r(b, f)).")
    assert (e.value.line, e.value.col) == (2, 25)
    with pytest.raises(ParseError, match="arity clash for predicate 'q'") as e:
        parse_native_formula("q(a) , q")
    assert (e.value.line, e.value.col) == (1, 8)
    # predicates and functions are checked apart
    assert parse_native_formula("q , r(q(a))") == And(
        Atom("q"), Atom("r", (Fun("q", (con("a"),)),))
    )


def test_syntax_error_reports_position():
    with pytest.raises(ParseError, match="line"):
        parse_problem("fof(c,conjecture,\n p & ).")


# (text, message, line, column), as the reader has reported them since
# it kept a position on every token
ERROR_POSITIONS = [
    ("/* a\n   b */ fof(c, conjecture, p & ).", "expected an atom (found ')')", 2, 32),
    ("/* a\n b */\n  fof(c, conjecture, p & ).", "expected an atom (found ')')", 3, 26),
    ("fof(a, axiom, p).\n% note\n  fof(c, conjecture, $false).",
     "unsupported TPTP word '$false'", 3, 22),
    ("fof(c, conjecture,\n  p => q @ r).", "unexpected character '@'", 2, 10),
    ("fof(c, conjecture, p).\n /* open", "unexpected character '/'", 2, 2),
    ("fof(c, conjecture, p).\n include('open).", "unexpected character \"'\"", 2, 10),
    ("fof(c, conjecture, p) % no newline", "expected '.', found ''", 1, 35),
]


@pytest.mark.parametrize("text, msg, line, col", ERROR_POSITIONS)
def test_error_positions(text, msg, line, col):
    with pytest.raises(ParseError) as e:
        parse_problem(text)
    assert str(e.value) == f"{msg} at line {line}, column {col}"
    assert (e.value.line, e.value.col) == (line, col)


def test_error_position_is_in_the_included_file(tmp_path):
    (tmp_path / "ax.ax").write_text("fof(a1, axiom, q(a)).\n\n  fof(a2, axiom, q(a, b)).")
    text = "fof(a0, axiom, r).\ninclude('ax.ax').\nfof(c, conjecture, p)."
    with pytest.raises(ParseError, match="arity clash for predicate 'q'") as e:
        parse_problem(text, axiom_root=tmp_path)
    assert (e.value.line, e.value.col) == (3, 18)


def test_last_line_comment_without_newline():
    prob = parse_problem("fof(a, axiom, q).\nfof(c, conjecture, p).\n% last line")
    assert prob.axioms == [q] and prob.conjecture == p
    assert parse_native_formula("p => q % trailing") == Imp(p, q)


def test_defined_words_rejected_in_both_grammars():
    # no engine has a truth constant: read as atoms, $true and $false
    # turned Theorems into Non-Theorems
    with pytest.raises(ParseError, match=r"'\$true'"):
        parse_problem("fof(c, conjecture, $true).")
    with pytest.raises(ParseError, match=r"'\$false'"):
        parse_problem("fof(a, axiom, $false). fof(c, conjecture, p).")
    with pytest.raises(ParseError, match=r"'\$true'"):
        parse_native_formula("p => $true")


def test_comments_ignored():
    prob = parse_problem("% a comment\nfof(c,conjecture, /* inline */ p).")
    assert prob.conjecture == p


def test_include_resolution(tmp_path):
    (tmp_path / "base.ax").write_text("fof(a1, axiom, p).")
    text = "include('base.ax').\nfof(c, conjecture, p)."
    prob = parse_problem(text, axiom_root=tmp_path)
    assert prob.axioms == [p]
    assert not prob.uses_equality


def test_equality_in_included_file(tmp_path):
    (tmp_path / "eq.ax").write_text("fof(a1, axiom, ![X]: X = X).")
    (tmp_path / "base.ax").write_text("include('eq.ax'). fof(a2, axiom, q).")
    text = "include('base.ax').\nfof(c, conjecture, p)."
    prob = parse_problem(text, axiom_root=tmp_path)
    assert prob.uses_equality
    assert prob.axioms[1:] == [q]


def test_include_cycle_rejected(tmp_path):
    (tmp_path / "a.ax").write_text("include('b.ax').")
    (tmp_path / "b.ax").write_text("fof(b1, axiom, p). include('./a.ax').")
    with pytest.raises(ParseError, match="include"):
        parse_problem("include('a.ax'). fof(c, conjecture, p).", axiom_root=tmp_path)


def test_double_conjecture_rejected():
    with pytest.raises(ParseError):
        parse_problem("fof(c1,conjecture,p). fof(c2,conjecture,q).")


def _tptp(text):
    return parse_problem(f"fof(c, conjecture, {text}).").conjecture


def test_tptp_connective_nesting():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert _tptp("a => b => c") == Imp(a, Imp(b, c))
    assert _tptp("a & b & c") == And(And(a, b), c)
    assert _tptp("a | b | c") == Or(Or(a, b), c)
    assert _tptp("a => b & c") == Imp(a, And(b, c))
    assert _tptp("~ a & b") == And(Neg(a), b)
    assert _tptp("a <= b") == Imp(b, a)
    assert _tptp("a <= b <= c") == Imp(Imp(c, b), a)
    assert _tptp("a <=> b | c") == Iff(a, Or(b, c))
    assert _tptp("a <~> b") == Neg(Iff(a, b))
    assert _tptp("a != b") == Neg(Atom("=", (con("a"), con("b"))))
    f = _tptp("![X]: p(X) => q")
    assert isinstance(f, Imp) and isinstance(f.left, Forall) and f.right == q
    assert f.left.body == Atom("p", (f.left.var,))


def test_tptp_connectives_do_not_mix():
    for text in ("a & b | c", "a & b => c", "a | b <=> c", "a => b => c & d => e"):
        with pytest.raises(ParseError):
            _tptp(text)


def test_tptp_negated_connectives():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert _tptp("(a ~| b)") == Neg(Or(a, b))
    assert _tptp("a ~& b") == Neg(And(a, b))
    assert _tptp("a ~& b | c") == Neg(And(a, Or(b, c)))


# ============================================================
# Native parsing
# ============================================================


def test_native_compact_syntax():
    f = parse_native_formula("( (p=>q) ; (q=>p) )")
    assert f == Or(Imp(p, q), Imp(q, p))


def test_native_precedence():
    # ~ binds tighter than , than ; than => than <=>
    f = parse_native_formula("~ p , q ; r => p <=> q")
    assert f == parse_native_formula("(((~ p , q) ; r) => p) <=> q")


def test_native_quantifier_scope_max():
    f = parse_native_formula("all X: p(X) => q")
    assert isinstance(f, Forall)
    assert isinstance(f.body, Imp)


def test_native_equality():
    from hatprove.terms import con

    f = parse_native_formula("a = b")
    assert f == Atom("=", (con("a"), con("b")))


def test_native_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        f = random_formula(rng, rng.randint(1, 9))
        g = parse_native_formula(to_native(f))
        assert alpha_equal(f, g, free_bijection=True), (f, g)
    # atoms with arguments, which the reader builds apart from the others
    for _ in range(200):
        f = random_fo_formula(rng, rng.randint(1, 12))
        assert alpha_equal(f, parse_native_formula(to_native(f))), f
    # printer and reader keep explicit stacks: formulas far deeper than
    # the recursion limit print and read back (compared as text, since
    # `==` on such formulas recurses)
    neg, conj = Atom("p"), Atom("p5000")
    for i in reversed(range(5000)):
        neg, conj = Neg(neg), And(Atom(f"p{i}"), conj)
    assert str(neg) == to_native(neg) == "~ " * 5000 + "p"
    text = " , ".join(f"(p{i}" for i in range(5000)) + " , p5000" + ")" * 5000
    assert str(conj) == to_native(conj) == text
    assert str(parse_native_formula(to_native(neg))) == to_native(neg)
    assert str(parse_native_formula(text)) == text
    tptp = "fof(c, conjecture, " + "~ " * 5000 + "p)."
    assert str(parse_problem(tptp).conjecture) == "~ " * 5000 + "p"
    assert str(parse_native_formula("(" * 5000 + "p" + ")" * 5000)) == "p"
    term = "p(" + "f(" * 5000 + "a" + ")" * 5001
    assert str(parse_native_formula(term)) == term
    chain = to_native(parse_native_formula(horn(150)))
    assert str(parse_native_formula(chain)) == chain


def test_native_round_trip_quantified():
    for text in [
        "(all X: (p(X) => (ex Y: q(X,Y))))",
        "(ex Y: (all X: (p(Y) => p(X))))",
        "~ (all X: (p(X) ; ~ p(X)))",
    ]:
        f = parse_native_formula(text)
        g = parse_native_formula(to_native(f))
        assert alpha_equal(f, g, free_bijection=True)


# ============================================================
# Goal assembly
# ============================================================


def test_assemble_axioms_and_conjecture():
    prob = parse_problem("fof(a,axiom,p). fof(b,axiom,q). fof(c,conjecture,r).")
    assert assemble_goal(prob) == Imp(And(p, q), r)


def test_assemble_conjecture_only():
    prob = parse_problem("fof(c,conjecture, p => p).")
    assert assemble_goal(prob) == Imp(p, p)


def test_assemble_no_conjecture():
    prob = parse_problem("fof(a,axiom, p & ~p).")
    assert assemble_goal(prob) == Neg(And(p, Neg(p)))


def test_assemble_empty_problem():
    prob = parse_problem("")
    with pytest.raises(ValueError):
        assemble_goal(prob)


def test_assemble_preserves_predicates():
    prob = parse_problem("fof(a,axiom,p). fof(b,axiom,q(a)). fof(c,conjecture,r).")
    goal = assemble_goal(prob)
    assert signature(goal)[0] == [("p", 0), ("q", 1), ("r", 0)]


# ============================================================
# Equality axioms
# ============================================================


def test_no_equality_identity():
    f = Imp(p, p)
    assert add_equality_axioms(f) is f


def test_equality_base_axioms_prove_symmetry():
    prob = parse_problem("fof(c,conjecture, a = b => b = a).")
    goal = add_equality_axioms(assemble_goal(prob))
    assert isinstance(goal, Imp)
    result = prove_lht(goal, timeout=10)
    assert result.verdict is Verdict.PROVED


def test_congruence_axioms_prove_substitution():
    prob = parse_problem("fof(c,conjecture, a = b => (p(a) => p(b))).")
    goal = add_equality_axioms(assemble_goal(prob))
    result = prove_lht(goal, timeout=10)
    assert result.verdict is Verdict.PROVED


def test_congruence_only_for_present_symbols():
    f = parse_problem("fof(c,conjecture, a = b => b = a).").conjecture
    axioms = equality_axioms(f)
    # reflexivity, symmetry, transitivity; no congruence without symbols
    assert len(axioms) == 3
    f2 = parse_problem("fof(c,conjecture, a = b => (p(a) => p(b))).").conjecture
    assert len(equality_axioms(f2)) == 4


def test_equality_axioms_text_and_order():
    # functions before predicates, each in first-occurrence order: the
    # axioms' order sets the search order on problems with equality
    f = parse_native_formula("q(g(X, a)) => p(f(X), Y) , X = Y", close=True)
    assert [to_native(ax) for ax in equality_axioms(f)] == [
        "(all X: X = X)",
        "(all X: (all Y: (X = Y => Y = X)))",
        "(all X: (all Y: (all Z: ((X = Y , Y = Z) => X = Z))))",
        "(all X1: (all X2: (all Y: (X1 = Y => g(X1,X2) = g(Y,X2)))))",
        "(all X1: (all X2: (all Y: (X2 = Y => g(X1,X2) = g(X1,Y)))))",
        "(all X1: (all Y: (X1 = Y => f(X1) = f(Y))))",
        "(all X1: (all Y: (X1 = Y => (q(X1) => q(Y)))))",
        "(all X1: (all X2: (all Y: (X1 = Y => (p(X1,X2) => p(Y,X2))))))",
        "(all X1: (all X2: (all Y: (X2 = Y => (p(X1,X2) => p(X1,Y))))))",
    ]
