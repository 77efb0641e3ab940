import itertools
import random

from hatprove import matrix, terms
from hatprove.frontend import parse_native_formula
from hatprove.matrix import (
    MatLit,
    build_matrix,
    canonical_form,
    copy_clause,
    iter_clauses,
    iter_literals,
    matrix_str,
)
from hatprove.terms import Atom, Imp, Neg, Or
from support import random_formula

p = Atom("p")


def lit_count(f):
    if isinstance(f, Atom):
        return 1
    if isinstance(f, Neg):
        return lit_count(f.body)
    if hasattr(f, "left"):
        extra = lit_count(f.left) + lit_count(f.right)
        from hatprove.terms import Iff

        if isinstance(f, Iff):
            return 2 * extra
        return extra
    return lit_count(f.body)


def golden(*clauses):
    """Expected canonical structure from a compact description."""
    out = ["matrix"]
    for clause in clauses:
        c = ["clause"]
        for pred, pol, prefix in clause:
            syms = tuple(
                ("a", int(s[1:])) if s.startswith("a") else ("V", int(s[1:]))
                for s in prefix.split()
            )
            c.append(("lit", pred, pol, (), syms))
        out.append(tuple(c))
    return tuple(out)


def test_matrix_identity_implication():
    m = build_matrix(Imp(p, p))
    assert matrix_str(m) == "{{p^1:a1V1},{p^0:a1a2}}"
    assert canonical_form(m) == golden(
        [("p", 1, "a1 V1")], [("p", 0, "a1 a2")]
    )


def test_matrix_excluded_middle():
    m = build_matrix(Or(p, Neg(p)))
    assert matrix_str(m) == "{{p^0:a1},{p^1:a2V1}}"
    assert canonical_form(m) == golden([("p", 0, "a1")], [("p", 1, "a2 V1")])


def test_matrix_atom():
    m = build_matrix(p)
    assert canonical_form(m) == golden([("p", 0, "a1")])


def test_matrix_golden_up_to_renaming():
    # two builds of the same formula canonicalize identically even
    # though every fresh symbol differs
    f = parse_native_formula("( (p=>q) ; (q=>p) )")
    assert canonical_form(build_matrix(f)) == canonical_form(build_matrix(f))


def test_literal_count_preserved():
    rng = random.Random(3)
    for _ in range(120):
        f = random_formula(rng, rng.randint(1, 9))
        m = build_matrix(f)
        assert sum(1 for _ in iter_literals(m)) == lit_count(f)


def test_prefixes_have_distinct_symbols():
    rng = random.Random(4)
    for _ in range(80):
        f = random_formula(rng, rng.randint(1, 9))
        for lit in iter_literals(build_matrix(f)):
            names = [s.name for s in lit.prefix]
            assert len(names) == len(set(names)), lit


def test_copy_renames_consistently():
    f = parse_native_formula("all X: (p(X) => q(X))", close=True)
    m = build_matrix(f)
    clause = m.clauses[0]
    cp, litmap = copy_clause(clause, itertools.count(1))
    orig_lits = list(iter_literals(clause))
    new_lits = list(iter_literals(cp))
    assert len(orig_lits) == len(new_lits)
    for o, n in zip(orig_lits, new_lits):
        assert o.pred == n.pred and o.pol == n.pol
        assert litmap[id(o)] is n


def test_copy_shares_beta_context_variables():
    # p(X) and q(X) sit in one clause: a copy of a clause nested below
    # must not unlink X occurrences that stay behind
    f = parse_native_formula("(all X: (p(X) , (q(X) ; r(X)))) => s", close=True)
    m = build_matrix(f)
    for clause in iter_clauses(m):
        parent = clause.parent.parent if clause.parent else None
        if parent is None:
            continue
        # variables renameable in a nested clause may not occur in the
        # parent clause outside this clause's subtree
        inside = {
            v.id
            for lit in iter_literals(clause)
            for a in lit.args
            for v in _vars(a)
        }
        for lit in iter_literals(parent):
            if any(c is clause for c in _chain(lit)):
                continue
            for a in lit.args:
                for v in _vars(a):
                    assert v.id not in clause.rename_tvars or v.id not in inside


def _vars(t):
    from hatprove.terms import term_vars

    return term_vars(t)


def _chain(lit):
    out = []
    node = lit.clause
    while node is not None:
        out.append(node)
        node = node.parent
    return out


def test_gamma_variable_distributes_over_alpha():
    # a negative conjunction under a universal splits into two clauses;
    # each copy may instantiate the quantifier independently
    f = parse_native_formula("(all X: (p(X) , q(X))) => (p(a) , p(b))", close=True)
    m = build_matrix(f)
    p_clauses = [
        c
        for c in m.clauses
        if any(l.pred == "p" and l.pol == 1 for l in iter_literals(c))
    ]
    assert p_clauses
    for c in p_clauses:
        tvars = {
            v.id
            for lit in iter_literals(c)
            for a in lit.args
            for v in _vars(a)
        }
        assert tvars <= c.rename_tvars


def test_prefix_variable_in_a_skolem_term_survives_substitution():
    # the negative universal puts a prefix variable on the prefix, so the
    # skolem term of the inner positive universal carries one
    f = parse_native_formula("(~ (all X: all Y: p(X,Y))) => q", close=True)
    lits = list(iter_literals(build_matrix(f)))
    assert sorted(l.pred for l in lits) == ["p", "q"]


def test_prefix_and_term_variables_with_equal_ids_are_both_dependencies(monkeypatch):
    # Var and PVar ids come from two separate counters; make them meet,
    # as they can in a long process, so that the term variable X and the
    # prefix variable V1 share an id
    monkeypatch.setattr(terms, "_var_counter", itertools.count(10**6))
    monkeypatch.setattr(matrix, "_pvar_counter", itertools.count(10**6))
    f = parse_native_formula("(all X: (p(X) => r)) => q", close=True)
    assert matrix_str(build_matrix(f)) == (
        "{{p(x1)^0:a1V1V2a2(x1,V1,V2),r^1:a1V1V2V3},{q^0:a1a3}}"
    )
