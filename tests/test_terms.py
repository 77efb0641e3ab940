import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hatprove.terms import (
    And,
    Atom,
    Bindings,
    Exists,
    Forall,
    Fun,
    Imp,
    Neg,
    Or,
    Var,
    con,
    formula_size,
    free_vars,
    fresh_var,
    signature,
    skolem_term,
    struct_equal,
    subformulas,
    substitute,
    unify_occurs,
)
from support import alpha_equal

X = Var(1001, "X")
Y = Var(1002, "Y")
Z = Var(1003, "Z")
a, b = con("a"), con("b")


def pa(t):
    return Atom("p", (t,))


def test_substitute_direct():
    assert substitute(pa(X), X, a) == pa(a)


def test_substitute_bound_untouched():
    f = Forall(X, pa(X))
    assert substitute(f, X, a) == f


def test_substitute_compositional():
    f = And(pa(X), Exists(Y, Atom("q", (X, Y))))
    t = Fun("f", (Z,))
    assert substitute(f, X, t) == And(pa(t), Exists(Y, Atom("q", (t, Y))))


def test_unify_one_binding():
    bnd = Bindings()
    assert unify_occurs(Fun("f", (X,)), Fun("f", (a,)), bnd)
    assert bnd.resolve_term(X) == a


def test_unify_occurs_check():
    bnd = Bindings()
    assert not unify_occurs(X, Fun("f", (X,)), bnd)
    assert bnd.mark() == 0


def test_unify_two_bindings():
    bnd = Bindings()
    assert unify_occurs(Fun("g", (X, b)), Fun("g", (a, Y)), bnd)
    assert bnd.resolve_term(X) == a
    assert bnd.resolve_term(Y) == b


def test_unify_symmetric_and_applies():
    rng = random.Random(7)

    def rand_term(depth):
        r = rng.random()
        if depth == 0 or r < 0.35:
            return rng.choice([X, Y, Z, a, b])
        return Fun(rng.choice("fg"), tuple(rand_term(depth - 1) for _ in range(rng.randint(1, 2))))

    for _ in range(500):
        t1, t2 = rand_term(3), rand_term(3)
        b1, b2 = Bindings(), Bindings()
        r12 = unify_occurs(t1, t2, b1)
        r21 = unify_occurs(t2, t1, b2)
        assert r12 == r21
        if r12:
            assert b1.resolve_term(t1) == b1.resolve_term(t2)
            assert b2.resolve_term(t1) == b2.resolve_term(t2)


def test_unify_failure_restores_bindings():
    bnd = Bindings()
    assert unify_occurs(X, a, bnd)
    before = bnd.mark()
    assert not unify_occurs(Fun("f", (X, Y)), Fun("f", (b, b)), bnd)
    assert bnd.mark() == before
    assert bnd.resolve_term(Y) == Y


def test_rebinding_a_bound_variable_raises():
    # an explicit check, so it holds under python -O as well
    bnd = Bindings()
    bnd.bind(X, a)
    with pytest.raises(ValueError, match="already bound"):
        bnd.bind(X, b)
    assert bnd.resolve_term(X) == a
    bnd.undo_to(0)
    bnd.bind(X, b)
    assert bnd.resolve_term(X) == b


def test_skolem_term_shape():
    t = skolem_term("s1", ())
    assert isinstance(t, Fun) and t.args == ()
    t2 = skolem_term("s2", (X,))
    assert t2.args == (X,)


def test_skolem_term_deterministic():
    assert skolem_term("s3", (X,)) == skolem_term("s3", (X,))
    assert skolem_term("s3", (X,)) != skolem_term("s4", (X,))


def test_formula_size():
    p, q = Atom("p"), Atom("q")
    assert formula_size(p) == 1
    assert formula_size(And(p, q)) == 3
    assert formula_size(Neg(Or(p, q))) == 4


def test_free_vars():
    assert free_vars(Forall(X, Atom("p", (X, Y)))) == {Y}
    assert free_vars(And(Atom("p"), Atom("q"))) == set()
    assert free_vars(Imp(Exists(X, pa(X)), pa(Y))) == {Y}


def test_subformulas_pre_order():
    f = Imp(And(pa(a), Neg(Atom("q"))), Forall(X, Or(pa(X), Exists(Y, Atom("r", (X, Y))))))
    assert list(subformulas(f)) == [
        f,
        f.left,
        pa(a),
        Neg(Atom("q")),
        Atom("q"),
        f.right,
        f.right.body,
        pa(X),
        f.right.body.right,
        Atom("r", (X, Y)),
    ]


def test_signature_first_occurrence_with_constants():
    f = Or(Atom("q", (Fun("g", (b, Fun("f", (X,)))),)), And(pa(a), Atom("q", (a,))))
    preds, funs = signature(f)
    assert preds == [("q", 1), ("p", 1)]
    assert funs == [("g", 2), ("b", 0), ("f", 1), ("a", 0)]
    assert signature(Forall(X, Atom("r"))) == ([("r", 0)], [])


def _deep_formula(n):
    """(p0 => (p1 => ... (all X: X = a))) with n implications, built
    without recursion; it is never hashed or printed."""
    f = Forall(X, Atom("=", (X, a)))
    for i in reversed(range(n)):
        f = Imp(Atom(f"p{i % 3}"), f)
    return f


def test_walkers_do_not_recurse():
    from hatprove.frontend import formula_uses_equality

    f = _deep_formula(10_000)
    assert formula_size(f) == 2 * 10_000 + 2
    assert free_vars(f) == set()
    assert signature(f) == ([("p0", 0), ("p1", 0), ("p2", 0), ("=", 2)], [("a", 0)])
    assert formula_uses_equality(f)


def test_substitute_removes_free_var():
    f = Imp(pa(X), Exists(Y, Atom("q", (X, Y))))
    assert X not in free_vars(substitute(f, X, a))


def test_alpha_equal():
    f = Forall(X, Imp(pa(X), pa(X)))
    g = Forall(Y, Imp(pa(Y), pa(Y)))
    assert alpha_equal(f, g)
    assert not alpha_equal(f, Forall(Y, Imp(pa(Y), pa(Z))))


def test_fresh_var_name_hint():
    v = fresh_var("W")
    assert v.name == "W"


# ============================================================
# The formula layer on an empty trail, and the kept hash
# ============================================================


def _sample():
    return Imp(And(pa(a), Neg(Atom("q"))), Forall(X, Or(pa(X), Exists(Y, Atom("r", (X, Y))))))


def test_equal_formulas_hash_and_compare_equal():
    f, g = _sample(), _sample()
    assert f is not g
    assert f == g and hash(f) == hash(g)
    assert hash(f) == hash(f)  # the kept hash is the computed one
    assert f != Imp(And(pa(b), Neg(Atom("q"))), f.right)
    assert And(pa(a), pa(b)) != Or(pa(a), pa(b))


def test_resolve_on_empty_trail_returns_the_argument():
    bnd = Bindings()
    f = Imp(pa(X), Atom("q", (Fun("f", (X,)),)))
    assert bnd.resolve_formula(f) is f
    assert bnd.resolve_term(f.right.args[0]) is f.right.args[0]
    bnd.bind(X, a)
    resolved = bnd.resolve_formula(f)
    assert resolved == Imp(pa(a), Atom("q", (Fun("f", (a,)),)))
    assert f == Imp(pa(X), Atom("q", (Fun("f", (X,)),)))  # the input is untouched
    # parts that no binding changes are shared, not rebuilt
    g = And(pa(X), Forall(Y, Atom("q", (Y, Fun("f", (b,))))))
    assert bnd.resolve_formula(g).right is g.right
    assert bnd.resolve_formula(g.right) is g.right
    bnd.undo_to(0)
    assert bnd.resolve_formula(f) is f


def test_struct_equal_on_empty_trail_keeps_variables_apart():
    bnd = Bindings()
    x1, x2 = Var(2001, "X"), Var(2002, "X")
    assert not struct_equal(pa(x1), pa(x2), bnd)
    assert struct_equal(pa(x1), pa(Var(2001, "other name")), bnd)
    assert not struct_equal(Forall(x1, pa(a)), Forall(x2, pa(a)), bnd)
    assert not struct_equal(Exists(x1, pa(x1)), Exists(x2, pa(x2)), bnd)
    assert not struct_equal(Forall(x1, pa(a)), Exists(x1, pa(a)), bnd)
    assert struct_equal(_sample(), _sample(), bnd)
    # once something is bound, bound variables compare by their values
    bnd.bind(x1, a)
    assert struct_equal(pa(x1), pa(a), bnd)
    assert not struct_equal(pa(x1), pa(x2), bnd)


def test_pickled_formula_carries_no_kept_hash():
    # pickled in another process, whose str hashes are salted differently
    src = str(Path(__file__).parent.parent / "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(p for p in paths if p),
        PYTHONHASHSEED="12345",
    )
    code = (
        "import pickle, sys\n"
        "from hatprove.terms import And, Atom, Forall, Neg, Var, con\n"
        "f = And(Atom('p', (con('a'),)), Forall(Var(7, 'X'), Neg(Atom('q', (Var(7, 'X'),)))))\n"
        "hash(f)\n"
        "sys.stdout.buffer.write(pickle.dumps(f))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True
    ).stdout
    f = pickle.loads(out)
    twin = And(pa(a), Forall(Var(7, "X"), Neg(Atom("q", (Var(7, "X"),)))))
    parts = [f, f.left, f.right, f.right.body, f.right.body.body]
    assert all(g._hash is None for g in parts)
    assert f == twin and hash(f) == hash(twin)
    # in-process round trips drop it too
    g = pickle.loads(pickle.dumps(twin))
    assert g._hash is None and hash(g) == hash(twin)


def _deep_term(n, leaf):
    t = leaf
    for _ in range(n):
        t = Fun("f", (t, X))
    return t


def test_deep_terms_hash_compare_and_pickle():
    t, twin, other = _deep_term(5_000, a), _deep_term(5_000, a), _deep_term(5_000, b)
    assert hash(t) == hash(twin)
    assert t == twin and t != other and t != X
    assert Atom("p", (t,)) == Atom("p", (twin,))
    assert hash(t) != hash(other)
    assert t != other  # with both hashes kept, unequal hashes decide
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and copy.args[1] == X
    # the kept hash stays behind, at every depth
    assert t._hash is not None
    assert copy._hash is None and copy.args[0]._hash is None
    assert hash(copy) == hash(t)
    g = Fun("g", (a, Fun("h", (X, b)), Y))
    assert pickle.loads(pickle.dumps(g)) == g
    assert hash(g) == hash(("g", g.args))  # a frozen dataclass's hash
