import time

from hatprove.connection import ConnSearch, prove_conn
from hatprove.embedding import embed
from hatprove.frontend import parse_native_formula
from hatprove.lj import prove_lj
from hatprove.matrix import build_matrix
from hatprove.oracle import ht_valid_prop
from hatprove.terms import Atom, Imp, Neg, Or
from hatprove.verdicts import Verdict
from support import enumerate_formulas

p, q = Atom("p"), Atom("q")
F1 = Or(Imp(p, q), Imp(q, p))
F3 = Imp(p, p)
F4 = Or(p, Neg(p))


def test_identity_implication_proved():
    result = prove_conn(F3, timeout=5)
    assert result.verdict is Verdict.PROVED
    # a single connection closes the proof
    assert len(result.proof.connections) == 1


def test_excluded_middle_not_proved():
    result = prove_conn(F4, timeout=5)
    assert result.verdict is Verdict.REFUTED


def test_embedded_f1_proved():
    assert prove_conn(embed(F1), timeout=20).verdict is Verdict.PROVED


def test_embedded_f2_proved():
    f2 = parse_native_formula("ex Y: all X: (p(Y) => p(X))", close=True)
    assert prove_conn(embed(f2), timeout=20).verdict is Verdict.PROVED


def test_embedded_weak_lem_proved():
    wlem = parse_native_formula("~ p ; ~ ~ p")
    assert prove_conn(embed(wlem), timeout=20).verdict is Verdict.PROVED


def test_plain_f1_refuted():
    assert prove_conn(F1, timeout=5).verdict is Verdict.REFUTED


def test_proof_connections_sigma_complementary():
    for text in ["p => p", "~ ~ (p ; ~ p)", "(p , q) => (q , p)",
                 "(p => q) => (~ q => ~ p)"]:
        f = parse_native_formula(text)
        result = prove_conn(f, timeout=10)
        assert result.proved, text
        for conn in result.proof.connections:
            assert conn.args0 == conn.args1, text
            assert conn.prefix0 == conn.prefix1, text


def test_first_order_quantifier_cases():
    cases = [
        ("(all X: (p(X) => q)) => ((ex X: p(X)) => q)", Verdict.PROVED),
        ("(all X: p(X)) => p(a)", Verdict.PROVED),
        ("p(a) => (ex X: p(X))", Verdict.PROVED),
        ("(ex X: p(X)) => (all X: p(X))", None),  # anything but Proved
    ]
    for text, expected in cases:
        f = parse_native_formula(text, close=True)
        result = prove_conn(f, timeout=5)
        if expected is None:
            assert result.verdict is not Verdict.PROVED, text
        else:
            assert result.verdict is expected, text


def test_quantifier_shift_not_proved():
    f = parse_native_formula(
        "(all X: ex Y: p(X,Y)) => (ex Y: all X: p(X,Y))", close=True
    )
    assert prove_conn(f, timeout=2).verdict is not Verdict.PROVED


def test_agreement_with_sequent_prover_small():
    # the adopted extension-clause and beta-clause definitions are
    # validated against the other intuitionistic backend
    mismatches = []
    for f in enumerate_formulas(5):
        lj = prove_lj(f).verdict
        conn = prove_conn(f, timeout=1).verdict
        if conn is Verdict.TIMEOUT:
            # the connection search cannot always exhaust; it must then
            # at least not disagree on provability
            assert lj is not Verdict.PROVED, f
            continue
        if (lj is Verdict.PROVED) != (conn is Verdict.PROVED):
            mismatches.append((f, lj, conn))
        if conn is Verdict.REFUTED and lj is Verdict.PROVED:
            mismatches.append((f, lj, conn))
    assert not mismatches, mismatches[:5]


def test_refutation_exhausts_without_copy_block():
    matrix = build_matrix(F4)
    search = ConnSearch(matrix, copy_limit=1)
    assert next(search.run(), None) is None
    assert not search.blocked


def test_path_length_is_bounded_by_the_round_limit():
    # the one proof of modus ponens needs one copy of each clause but a
    # path of two literals: q^0 extends into p => q, whose p^0 then
    # extends into the clause p^1
    f = parse_native_formula("p => ((p => q) => q)")
    search = ConnSearch(build_matrix(f), copy_limit=1)
    assert next(search.run(), None) is None
    assert search.blocked
    result = prove_conn(f, timeout=5)
    assert result.verdict is Verdict.PROVED and result.rounds == 2


def test_short_embedded_proofs_found_first():
    # a short proof beside the embedding's four-literal axiom clauses
    for text in ["p => (p ; q)", "p ; (q => q)", "(p ; q) ; (p => p)"]:
        result = prove_conn(embed(parse_native_formula(text)), timeout=2)
        assert result.verdict is Verdict.PROVED, text


def test_connection_prove_on_matrix():
    assert prove_conn(F3, timeout=5).verdict is Verdict.PROVED
    assert prove_conn(F4, timeout=5).verdict is Verdict.REFUTED


def test_matrix_built_once_per_call(monkeypatch):
    import hatprove.connection as connection

    built = []
    build = connection.build_matrix
    monkeypatch.setattr(
        connection, "build_matrix", lambda f: built.append(f) or build(f)
    )
    # the first needs two copies of the universal, Peirce two rounds
    two_copies = parse_native_formula("(all X: p(X)) => (p(a) , p(b))", close=True)
    peirce = parse_native_formula("((p => q) => p) => p", close=True)
    for f, verdict in ((two_copies, Verdict.PROVED), (peirce, Verdict.REFUTED)):
        built.clear()
        r = prove_conn(f, timeout=5)
        assert r.verdict is verdict and r.rounds >= 2
        assert built == [f]


def test_sat_cache_is_shared_by_every_round(monkeypatch):
    # a Horn chain of 22 links needs 23 rounds; each prefix component is
    # solved once in the call, not once in every round that meets it
    import hatprove.connection as connection
    from hatprove.prefixes import constraints_signature

    solved = []
    solve = connection._solve

    def recording_solve(pairs, pb, tb, budget):
        solved.append(constraints_signature(pairs, pb, tb))
        return solve(pairs, pb, tb, budget)

    monkeypatch.setattr(connection, "_solve", recording_solve)
    links = " , ".join(f"(p{i} => p{i + 1})" for i in range(22))
    result = prove_conn(parse_native_formula(f"(p0 , {links}) => p22"), timeout=60)
    assert result.verdict is Verdict.PROVED and result.rounds == 23
    assert solved and len(solved) == len(set(solved))


def test_inconclusive_prefix_check_counts_as_satisfiable(monkeypatch):
    # a component check that runs out of its work budget must not prune:
    # it is cached as satisfiable, and the final unification decides
    import hatprove.connection as connection

    searches, budgeted = [], []
    solve = connection._solve

    class Counted(ConnSearch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searches.append(self)

    def run(f):
        searches.clear()
        r = prove_conn(f, timeout=10)
        return r, sum(s.steps for s in searches), searches[-1].sat_cache

    monkeypatch.setattr(connection, "ConnSearch", Counted)
    peirce = parse_native_formula("((p => q) => p) => p")
    _, steps, cache = run(peirce)
    assert False in cache.values()  # at the real budget the check prunes

    def no_budget(pairs, pb, tb, budget):
        budgeted.append(budget)
        return solve(pairs, pb, tb, [0])  # exceeded at the first step

    monkeypatch.setattr(connection, "_solve", no_budget)
    r, unpruned_steps, cache = run(peirce)
    assert budgeted and set(cache.values()) == {True}
    assert r.verdict is Verdict.REFUTED and unpruned_steps > steps
    r, _, cache = run(embed(F1))
    assert set(cache.values()) == {True}
    assert r.verdict is Verdict.PROVED
    assert all(c.prefix0 == c.prefix1 for c in r.proof.connections)


def test_regularity_never_removes_all_proofs():
    # regularity is always on; it still leaves a proof of every HT-valid
    # formula of at most 5 nodes
    valid = [f for f in enumerate_formulas(5) if ht_valid_prop(f)]
    assert len(valid) == 42
    for f in valid:
        assert prove_conn(embed(f), timeout=2).verdict is Verdict.PROVED, f


def test_embedding_soundness_sample():
    for f in enumerate_formulas(4):
        result = prove_conn(embed(f), timeout=0.5)
        if result.verdict is Verdict.PROVED:
            assert ht_valid_prop(f), f


def test_conn_search_counts_are_unchanged(monkeypatch):
    # (goal, verdict, rounds, steps, clause copies, constraint sets
    # checked by search, connections of the proof), summed over rounds;
    # every round holds the call's one sat_cache, so the cached column
    # adds its size once per round; no goal comes near its deadline, so
    # the counts do not depend on the machine
    import hatprove.connection as connection

    f2 = parse_native_formula("ex Y: all X: (p(Y) => p(X))", close=True)
    cases = [
        (embed(F1), Verdict.PROVED, 2, 14, 20, 26, 4),
        (embed(f2), Verdict.PROVED, 2, 5, 9, 10, 2),
        (embed(parse_native_formula("~ p ; ~ ~ p")), Verdict.PROVED, 2, 7, 8, 12, 4),
        (embed(parse_native_formula("p => (p ; q)")), Verdict.PROVED, 1, 1, 2, 1, 1),
        (F3, Verdict.PROVED, 1, 1, 2, 1, 1),
        (parse_native_formula("(all X: (p(X) => q)) => ((ex X: p(X)) => q)", close=True),
         Verdict.PROVED, 2, 4, 5, 4, 2),
        (parse_native_formula("(all X: p(X)) => (p(a) , p(b))", close=True),
         Verdict.PROVED, 2, 4, 5, 4, 2),
        (parse_native_formula("((p => q) => p) => p"), Verdict.REFUTED, 2, 8, 5, 6, 0),
    ]
    searches, copies = [], []
    copy_clause = connection.copy_clause

    class Counted(ConnSearch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searches.append(self)

    monkeypatch.setattr(connection, "ConnSearch", Counted)
    monkeypatch.setattr(
        connection, "copy_clause", lambda *args: copies.append(1) or copy_clause(*args)
    )
    for f, verdict, rounds, steps, n_copies, cached, n_conns in cases:
        searches.clear()
        copies.clear()
        r = prove_conn(f, timeout=60)
        got = (
            r.verdict,
            r.rounds,
            sum(s.steps for s in searches),
            len(copies),
            sum(len(s.sat_cache) for s in searches),
            len(r.proof.connections) if r.proved else 0,
        )
        assert got == (verdict, rounds, steps, n_copies, cached, n_conns), str(f)
