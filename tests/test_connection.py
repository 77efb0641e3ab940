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


def test_connection_prove_on_matrix():
    assert prove_conn(F3, timeout=5, restricted_bt=False).verdict is Verdict.PROVED
    assert prove_conn(F4, timeout=5, restricted_bt=False).verdict is Verdict.REFUTED
    # restricted backtracking alone may not conclude invalidity
    r = prove_conn(F4, timeout=5, restricted_bt=True)
    assert r.verdict in (Verdict.GAVE_UP, Verdict.PROVED, Verdict.TIMEOUT)


def test_matrix_built_once_per_call(monkeypatch):
    import hatprove.connection as connection

    built = []
    build = connection.build_matrix
    monkeypatch.setattr(
        connection, "build_matrix", lambda f: built.append(f) or build(f)
    )
    # the first needs two copies of the universal, Peirce two rounds a pass
    two_copies = parse_native_formula("(all X: p(X)) => (p(a) , p(b))", close=True)
    peirce = parse_native_formula("((p => q) => p) => p", close=True)
    for f, verdict in ((two_copies, Verdict.PROVED), (peirce, Verdict.REFUTED)):
        built.clear()
        r = prove_conn(f, timeout=5)
        assert r.verdict is verdict and r.rounds >= 2
        assert built == [f]


def test_regularity_never_removes_all_proofs():
    for f in enumerate_formulas(5):
        if not ht_valid_prop(f):
            continue
        with_reg = prove_conn(embed(f), timeout=2, regularity=True)
        if with_reg.verdict is Verdict.PROVED:
            continue
        without = prove_conn(embed(f), timeout=2, regularity=False)
        assert without.verdict is not Verdict.PROVED, f


def test_restricted_backtracking_flag():
    # the complete configuration alone must still prove the examples
    assert prove_conn(F3, timeout=5, restricted_bt=False).verdict is Verdict.PROVED
    assert prove_conn(embed(F1), timeout=20, restricted_bt=False).verdict in (
        Verdict.PROVED,
        Verdict.TIMEOUT,
    )


def test_embedding_soundness_sample():
    for f in enumerate_formulas(4):
        result = prove_conn(embed(f), timeout=0.5)
        if result.verdict is Verdict.PROVED:
            assert ht_valid_prop(f), f
