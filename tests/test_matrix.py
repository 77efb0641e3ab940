import itertools
import random
from pathlib import Path

from hatprove import matrix, terms
from hatprove.embedding import embed
from hatprove.frontend import parse_native_formula
from hatprove.matrix import (
    MatClause,
    MatLit,
    MatMatrix,
    PConst,
    PVar,
    build_matrix,
    copy_clause,
    iter_clauses,
    iter_literals,
    leaves,
    matrix_str,
    meet,
)
from hatprove.runner import load_goal
from hatprove.terms import Atom, Imp, Neg, Or, Var
from support import enumerate_formulas, horn, random_fo_formula, random_formula

MINI = Path(__file__).parent.parent / "problems" / "mini"

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


def test_matrix_identity_implication():
    m = build_matrix(Imp(p, p))
    assert matrix_str(m) == "{{p^1:a1V1},{p^0:a1a2}}"
    # str of every node and prefix symbol is the same printer
    assert str(m) == matrix_str(m)
    assert [str(c) for c in m.clauses] == ["{p^1:a1V1}", "{p^0:a1a2}"]
    assert [str(s) for s in m.clauses[0].elements[0].prefix] == ["a1", "V1"]


def test_matrix_excluded_middle():
    m = build_matrix(Or(p, Neg(p)))
    assert matrix_str(m) == "{{p^0:a1},{p^1:a2V1}}"


def test_matrix_atom():
    assert matrix_str(build_matrix(p)) == "{{p^0:a1}}"


def test_matrix_golden_up_to_renaming():
    # two builds of the same formula print identically even though
    # every fresh symbol differs: each builder numbers its own symbols
    f = parse_native_formula("( (p=>q) ; (q=>p) )")
    m1, m2 = build_matrix(f), build_matrix(f)
    l1, l2 = next(iter_literals(m1)), next(iter_literals(m2))
    assert l1.prefix[-1] != l2.prefix[-1]
    assert matrix_str(m1) == matrix_str(m2) == "{{p^1:a1V1},{q^0:a1a2},{q^1:a3V2},{p^0:a3a4}}"


def test_printer_shows_prefix_variables_inside_terms():
    # the skolem term of a positive universal under a negative one
    # depends on a prefix variable; equality prints as a prefix symbol
    f = parse_native_formula(
        "(all X: ex Y: p(X,Y)) => (ex Y: all X: p(X,Y))", close=True
    )
    assert matrix_str(build_matrix(f)) == (
        "{{p(x1,#f1(x1,V1))^1:a1V1V2},{p(#f2(x2),x2)^0:a1a2(x2)a3(x2)}}"
    )
    eq = parse_native_formula("all X: X = X", close=True)
    assert matrix_str(build_matrix(eq)) == "{{=(#f1,#f1)^0:a1a2}}"
    assert str(PConst("a4", (PVar(1, "V3"), PConst("a5")))) == "a4(V3,a5)"


def test_walkers_do_not_recurse():
    # a matrix nested 10,000 deep: each clause holds a literal and the
    # next matrix, whose one clause holds the next literal, and so on
    depth = 10_000
    root = inner = MatMatrix([])
    lits = []
    for i in range(depth):
        lit = MatLit("p", (), i % 2, ())
        clause = MatClause(i + 1, [lit])
        lit.clause = clause
        clause.parent = inner
        inner.clauses.append(clause)
        lits.append(lit)
        if i + 1 < depth:
            inner = MatMatrix([], clause)
            clause.elements.append(inner)
    assert list(iter_literals(root)) == lits
    assert [c.label for c in iter_clauses(root)] == list(range(1, depth + 1))
    assert matrix_str(root).count("{") == 2 * depth


def test_repr_shows_only_the_node_subtree():
    # the back links to the clause and parent are left out of repr, so
    # a literal prints without its sibling clauses
    m = build_matrix(parse_native_formula("(p , q) => (q , p)"))
    lit = next(iter_literals(m))
    assert repr(lit) == f"MatLit(pred='p', args=(), pol=1, prefix={lit.prefix!r})"
    # and the innermost node of a matrix nested 10,000 deep prints
    # without walking up the chain
    inner = MatMatrix([])
    for i in range(10_000):
        lit = MatLit("p", (), i % 2, ())
        clause = MatClause(i + 1, [lit], inner)
        lit.clause = clause
        inner.clauses.append(clause)
        inner = MatMatrix([], clause)
        clause.elements.append(inner)
    assert repr(inner) == "MatMatrix(clauses=[])"
    assert repr(lit) == "MatLit(pred='p', args=(), pol=1, prefix=())"


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
    cp, litmap = copy_clause(clause)
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


def _renameable_by_meet(root):
    """The rename sets by definition, one `meet` per (clause, variable,
    occurrence): a copy of C renames x iff x occurs under C and no
    occurrence of x meets C at a clause other than C."""
    homes = {}
    for lit in iter_literals(root):
        for v in leaves(lit.args + lit.prefix):
            homes.setdefault((isinstance(v, Var), v.id), []).append(lit.clause)
    out = {}
    for c in iter_clauses(root):
        tset, pset = set(), set()
        for (is_term, key), hs in homes.items():
            meets = [meet(h, c) for h in hs]
            if any(m is c for m in meets) and not any(
                isinstance(m, MatClause) and m is not c for m in meets
            ):
                (tset if is_term else pset).add(key)
        out[id(c)] = (tset, pset)
    return out


def test_rename_sets_match_the_definition():
    rng = random.Random(13)
    goals = list(enumerate_formulas(4))
    goals += [random_formula(rng, rng.randint(4, 12), ("p", "q", "r", "s")) for _ in range(80)]
    goals += [random_fo_formula(rng, rng.randint(2, 9)) for _ in range(150)]
    goals += [load_goal(path, "tptp") for path in sorted(MINI.glob("*.p"))]
    renaming = 0
    for goal in goals:
        for f in (goal, embed(goal)):
            m = build_matrix(f)
            expected = _renameable_by_meet(m)
            for c in iter_clauses(m):
                assert (c.rename_tvars, c.rename_pvars) == expected[id(c)], f
                renaming += bool(c.rename_tvars or c.rename_pvars)
    assert renaming > 1000  # the corpus exercises renaming, not only empty sets


def test_renameability_walks_each_home_chain_once(monkeypatch):
    calls = {"meet": 0, "node_chain": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(matrix, "meet", counted("meet", matrix.meet))
    monkeypatch.setattr(matrix, "node_chain", counted("node_chain", matrix.node_chain))
    m = build_matrix(embed(parse_native_formula(horn(6))))
    pairs = {
        (isinstance(v, Var), v.id, id(lit.clause))
        for lit in iter_literals(m)
        for v in leaves(lit.args + lit.prefix)
    }
    assert calls["meet"] == 0
    assert 0 < calls["node_chain"] <= len(pairs)


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
