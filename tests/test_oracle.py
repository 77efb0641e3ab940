import itertools
import time

import pytest

from hatprove import oracle
from hatprove.frontend import parse_native_formula
from hatprove.oracle import (
    HERE,
    THERE,
    HTInterpretation,
    QuantifierError,
    _atom_masks,
    classical_valid_prop,
    eval_ht,
    ht_countermodel,
    ht_countermodel_fo,
    ht_valid_prop,
)
from hatprove.terms import And, Atom, Exists, Forall, Fun, Imp, Neg, Or, Var
from hatprove.verdicts import SearchTimeout
from support import all_models, enumerate_formulas, ht_holds

p, q = Atom("p"), Atom("q")
F1 = Or(Imp(p, q), Imp(q, p))
PQ = Or(p, q)  # its models are all nine interpretations over p, q


def interp(here, there):
    return HTInterpretation(
        frozenset((a, ()) for a in here), frozenset((a, ()) for a in there)
    )


def test_eval_atom_at_here():
    assert not eval_ht(p, interp([], ["p"]), HERE)
    assert eval_ht(p, interp([], ["p"]), THERE)


def test_eval_negation_needs_both_worlds():
    # ~p at here requires p false at here and at there
    assert not eval_ht(Neg(p), interp([], ["p"]), HERE)
    assert eval_ht(Neg(Neg(p)), interp([], ["p"]), HERE)


def test_known_validities():
    assert ht_valid_prop(F1)
    assert not ht_valid_prop(Or(p, Neg(p)))
    assert ht_valid_prop(Or(Neg(p), Neg(Neg(p))))
    assert ht_valid_prop(Imp(Or(p, p), p))
    assert not ht_valid_prop(Or(Neg(p), Neg(Or(p, p))))


def test_classical_validities():
    assert classical_valid_prop(Or(p, Neg(p)))
    assert not classical_valid_prop(p)
    assert classical_valid_prop(F1)


def test_quantifier_rejected():
    x = Var(5001, "X")
    with pytest.raises(QuantifierError):
        ht_valid_prop(Exists(x, Atom("p", (x,))))
    with pytest.raises(QuantifierError):
        ht_countermodel(Forall(x, p))
    with pytest.raises(QuantifierError):
        classical_valid_prop(Atom("p", (Fun("a"),)))


def test_countermodel_falsifies():
    m = ht_countermodel(Or(p, Neg(p)))
    assert m is not None
    assert not eval_ht(Or(p, Neg(p)), m, HERE)
    assert str(m) == "D={0..0} H={} T={p}"
    assert ht_countermodel(F1) is None


def test_interpretation_requires_persistence():
    with pytest.raises(ValueError):
        interp(["p"], [])
    with pytest.raises(ValueError):
        HTInterpretation(frozenset({("p", (0,))}), frozenset(), 1)


def test_interpretation_count():
    # bit i of an atom's masks is its value in interpretation i: the
    # first atom is the most significant base-3 digit, 2 = both worlds
    # and 1 = there only, as in the reference enumeration
    models = list(all_models(PQ))
    assert len(models) == 9
    for j, atom in enumerate([("p", ()), ("q", ())]):
        here, there = _atom_masks(j, 2)
        for i, m in enumerate(models):
            assert bool(here >> i & 1) == (atom in m.here)
            assert bool(there >> i & 1) == (atom in m.there)


def test_persistence_and_inclusion():
    # true at here implies true at there; HT-valid implies classically valid
    for f in enumerate_formulas(6):
        for m in all_models(PQ):
            if eval_ht(f, m, HERE):
                assert eval_ht(f, m, THERE), f
        if ht_valid_prop(f):
            assert classical_valid_prop(f), f


def test_there_with_collapsed_worlds_is_classical():
    for f in enumerate_formulas(5):
        rows = []
        for vals in itertools.product([False, True], repeat=2):
            m = interp(*[[n for n, v in zip(("p", "q"), vals) if v]] * 2)
            classical = _eval_classical(f, dict(zip(("p", "q"), vals)))
            assert eval_ht(f, m, THERE) == classical
            rows.append(classical)
        assert classical_valid_prop(f) == all(rows), f


# ============================================================
# Agreement with the pointwise reference evaluator
# ============================================================


def test_fo_evaluator_agrees_on_propositional_formulas():
    for f in enumerate_formulas(5):
        for m in all_models(PQ):
            for world in (HERE, THERE):
                assert eval_ht(f, m, world) == ht_holds(f, m, world), (f, m, world)


FIRST_ORDER = [
    "(all X: ex Y: p(X,Y)) => (ex Y: all X: p(X,Y))",
    "ex Y: (p(Y) => all X: p(X))",
    "(ex X: p(X)) => p(a)",
]


@pytest.mark.parametrize("text", FIRST_ORDER)
def test_evaluator_agrees_with_reference_on_first_order_formulas(text):
    f = parse_native_formula(text, close=True)
    for size in (1, 2):
        first = None
        for m in all_models(f, size):
            for world in (HERE, THERE):
                assert eval_ht(f, m, world) == ht_holds(f, m, world), (m, world)
            if first is None and not ht_holds(f, m, HERE):
                first = m
        assert ht_countermodel_fo(f, size) == first, size


# Twelve atoms each: the first two sorted atoms (p0, p1) are fixed per
# block of 3^10 interpretations.  The countermodel of the last formula
# lies in the fifth block.  Verdicts and countermodels are those of the
# one-interpretation-at-a-time enumerator that the block evaluator
# replaced.
BEYOND_ONE_BLOCK = [
    (" ; ".join(f"p{i}" for i in range(11)) + " ; ~ p11", ([], ["p11"]), False),
    ("(" + " , ".join(["p0"] + [f"(p{i} => p{i + 1})" for i in range(11)]) + ") => p11",
     None, True),
    ("(p0 , p1) => (" + " ; ".join(f"p{i}" for i in range(2, 12)) + ")",
     ([], ["p0", "p1"]), False),
]


@pytest.mark.parametrize("text, expected, classical", BEYOND_ONE_BLOCK)
def test_block_boundary(text, expected, classical, monkeypatch):
    widths = []
    evaluate = oracle._eval

    def recording(*args):
        here, there = evaluate(*args)
        widths.append(max(here.bit_length(), there.bit_length()))
        return here, there

    monkeypatch.setattr(oracle, "_eval", recording)
    f = parse_native_formula(text)
    m = ht_countermodel(f)
    assert ht_valid_prop(f) == (expected is None)
    assert classical_valid_prop(f) == classical
    if expected is None:
        assert m is None
    else:
        assert m == interp(*expected)
        assert not eval_ht(f, m, HERE)
    assert max(widths) <= 3**oracle.BLOCK_ATOMS == 3**10


# ============================================================
# First-order finite refuter
# ============================================================


def test_fo_refuter_assigns_constants():
    f = parse_native_formula("(ex X: p(X)) => p(a)", close=True)
    assert ht_countermodel_fo(f, 1) is None
    m = ht_countermodel_fo(f, 2)
    assert m is not None and m.size == 2
    assert not eval_ht(f, m, HERE)
    (sym, d), = m.constants
    assert sym == "a" and ("p", (d,)) not in m.here


def test_fo_refuter_finds_ht_only_countermodel():
    # classically valid, so only a model with H != T can falsify it
    f = parse_native_formula("all X: (p(X) ; ~ p(X))", close=True)
    m = ht_countermodel_fo(f, 1)
    assert m is not None and m.here != m.there
    assert not eval_ht(f, m, HERE)


def test_fo_refuter_declines_outside_fragment():
    x = Var(5002, "X")
    with_function = Forall(x, Atom("p", (Fun("f", (x,)),)))
    assert ht_countermodel_fo(with_function, 1) is None
    with pytest.raises(ValueError):
        eval_ht(with_function, HTInterpretation(frozenset(), frozenset()))
    assert ht_countermodel_fo(Atom("p", (x,)), 1) is None  # free variable
    shift = parse_native_formula(
        "(all X: ex Y: p(X,Y)) => (ex Y: all X: p(X,Y))", close=True
    )
    assert ht_countermodel_fo(shift, 4) is None
    too_many_atoms = parse_native_formula(
        "all X: all Y: (p(X,Y) ; q(X,Y))", close=True
    )
    assert ht_countermodel_fo(too_many_atoms, 3) is None


def test_fo_refuter_honours_deadline():
    f = parse_native_formula("all X: all Y: (r(X,Y) => r(Y,X))", close=True)
    with pytest.raises(SearchTimeout):
        ht_countermodel_fo(f, 2, deadline=time.monotonic() - 1)


def _eval_classical(f, assign):
    if isinstance(f, Atom):
        return assign[f.pred]
    if isinstance(f, And):
        return _eval_classical(f.left, assign) and _eval_classical(f.right, assign)
    if isinstance(f, Or):
        return _eval_classical(f.left, assign) or _eval_classical(f.right, assign)
    if isinstance(f, Imp):
        return not _eval_classical(f.left, assign) or _eval_classical(f.right, assign)
    return not _eval_classical(f.body, assign)
