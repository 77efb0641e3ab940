import itertools
import time

import pytest

import hatprove.prefixes as prefixes
from hatprove.matrix import PConst, PVar
from hatprove.prefixes import (
    expand,
    prefix_unify,
    resolved_string,
    solution_signature,
)
from hatprove.terms import Bindings
from hatprove.verdicts import SearchTimeout
from support import brute_solutions, solution_instance_of

a1, a2, a3 = PConst("a1"), PConst("a2"), PConst("a3")


def V(i):
    return PVar(9000 + i, f"V{i}")


def solutions(constraints):
    """Materialized solution dicts from the production unifier."""
    out = []
    pb, tb = Bindings(), Bindings()
    for _ in prefix_unify(constraints, pb, tb):
        sol = {}
        for p1, p2 in constraints:
            for sym in tuple(p1) + tuple(p2):
                if isinstance(sym, PVar) and pb.lookup(sym) is not None:
                    sol[sym.name] = tuple(
                        s.name for s in expand(pb.lookup(sym), pb)
                    )
        out.append(sol)
    return out


def test_single_variable_suffix_unifies():
    sols = solutions([((a1, V(1)), (a1, a2))])
    assert sols == [{"V1": ("a2",)}]


def test_leading_constants_clash():
    assert solutions([((a1,), (a2, V(1)))]) == []


def test_empty_prefixes():
    assert solutions([((), ())]) == [{}]


def test_variable_prefix_position():
    sols = solutions([((V(1), a2), (a1, a2))])
    assert sols == [{"V1": ("a1",)}]


def test_variable_to_empty():
    sols = solutions([((a1, V(1)), (a1,))])
    assert sols == [{"V1": ()}]


def test_shared_variable_chain():
    sols = solutions([((a1, V(1)), (a1, a2)), ((V(1),), (V(2),))])
    assert {"V1": ("a2",), "V2": ("a2",)} in sols


def test_clash_across_constraints():
    assert (
        solutions([((V(1),), (a1,)), ((V(1),), (a2,))]) == []
    )


def test_constant_arguments_must_unify():
    from hatprove.terms import Var, con

    X = Var(9501, "X")
    c1 = PConst("a4", (X,))
    c2 = PConst("a4", (con("c"),))
    pb, tb = Bindings(), Bindings()
    gen = prefix_unify([((c1,), (c2,))], pb, tb)  # bindings live with the generator
    assert next(gen, None) is not None
    assert tb.resolve_term(X) == con("c")
    gen.close()
    c3 = PConst("a5", (con("c"),))
    assert next(prefix_unify([((c1,), (c3,))], Bindings(), Bindings()), None) is None


def test_occurs_through_constant_arguments():
    v = V(7)
    dep = PConst("a6", (v,))
    # V7 cannot absorb a constant that depends on V7
    assert solutions([((a1, v), (a1, dep, a2))]) == []


def test_every_solution_verified_by_application():
    pb, tb = Bindings(), Bindings()
    cons = [((V(1), a2), (a1, V(2))), ((a1, V(3)), (V(1), a2))]
    for _ in prefix_unify(cons, pb, tb):
        for p1, p2 in cons:
            assert resolved_string(p1, pb, tb) == resolved_string(p2, pb, tb)


def test_rebinding_a_bound_prefix_variable_raises():
    pb = Bindings()
    pb.bind(V(1), (a1,))
    with pytest.raises(ValueError, match="already bound"):
        pb.bind(V(1), (a2,))
    assert pb.lookup(V(1)) == (a1,)


def test_unverified_unifier_is_rejected(monkeypatch):
    # a solver that claims success without binding anything must not
    # get its non-unifier past the re-check, with or without python -O
    def bogus_solve(pairs, pb, tb, budget=None, deadline=None):
        yield

    monkeypatch.setattr(prefixes, "_solve", bogus_solve)
    with pytest.raises(RuntimeError, match="unverified prefix unifier"):
        next(prefix_unify([((a1,), (a2,))], Bindings(), Bindings()))


def test_past_deadline_stops_the_unifier():
    # satisfiable, so only the deadline can stop it
    constraints = [((a1, V(1)), (a1, a2, V(2)))]
    assert solutions(constraints)
    pb = Bindings()
    with pytest.raises(SearchTimeout):
        next(prefix_unify(constraints, pb, Bindings(), time.monotonic() - 1))
    assert pb.mark() == 0


# ============================================================
# Brute-force comparison on small alphabets
# ============================================================


def _strings(symbols, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(symbols, repeat=n)


def _to_prod(string, consts, pvars):
    return tuple(pvars[s] if s in pvars else consts[s] for s in string)


def _prod_solutions_as_dicts(pairs, pvars):
    out = []
    pb, tb = Bindings(), Bindings()
    names = {v.id: n for n, v in pvars.items()}
    for _ in prefix_unify(pairs, pb, tb):
        sol = {}
        for n, v in pvars.items():
            if pb.lookup(v) is not None:
                sol[n] = tuple(
                    s.name if isinstance(s, PVar) else s.name
                    for s in expand(pb.lookup(v), pb)
                )
        out.append(sol)
    return out


def test_matches_brute_force_on_small_alphabet():
    # alphabet of three symbols, one of them a variable
    symbols = ("a", "b", "V")
    variables = {"V"}
    consts = {"a": PConst("a"), "b": PConst("b")}
    pvars = {"V": V(1)}
    agree = 0
    for s in _strings(symbols, 3):
        for t in _strings(symbols, 3):
            pairs = [(_to_prod(s, consts, pvars), _to_prod(t, consts, pvars))]
            brute = brute_solutions([(s, t)], variables)
            prod = _prod_solutions_as_dicts(pairs, pvars)
            assert bool(brute) == bool(prod), (s, t)
            _assert_mutual_coverage(brute, prod, variables, (s, t))
            agree += 1
    assert agree == 40 * 40


def test_matches_brute_force_two_variables():
    symbols = ("a", "V", "W")
    variables = {"V", "W"}
    consts = {"a": PConst("a")}
    pvars = {"V": PVar(9101, "V"), "W": PVar(9102, "W")}
    for s in _strings(symbols, 3):
        for t in _strings(symbols, 3):
            # prefixes never repeat a symbol; skip strings that do
            if len(set(s)) != len(s) or len(set(t)) != len(t):
                continue
            pairs = [(_to_prod(s, consts, pvars), _to_prod(t, consts, pvars))]
            brute = brute_solutions([(s, t)], variables)
            prod = _prod_solutions_as_dicts(pairs, pvars)
            assert bool(brute) == bool(prod), (s, t)
            _assert_mutual_coverage(brute, prod, variables, (s, t))


def _assert_mutual_coverage(brute, prod, variables, case):
    # each solution of one enumeration is an instance of one from the
    # other, so the two sets describe the same unifiers
    for sol in brute:
        assert any(
            solution_instance_of(g, sol, variables) for g in prod
        ), (case, sol, prod)
    for sol in prod:
        assert any(
            solution_instance_of(g, sol, variables) for g in brute
        ), (case, sol, brute)
