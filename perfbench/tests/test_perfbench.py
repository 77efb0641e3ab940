"""Tests of the benchmark itself: statuses, scoring, spans and known failures.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

import corpora
import run
import scoring
import spans
from hatprove.frontend import parse_native_formula
from hatprove.oracle import ht_valid_prop
from hatprove.runner import RunConfig, run_problem

ROOT = Path(__file__).resolve().parents[2]
MINI = ROOT / "problems" / "mini"


# ============================================================
# Generated statuses agree with the oracle
# ============================================================


@pytest.mark.parametrize("family, gen, sizes, status", corpora.LHT_FAMILIES)
def test_workload_family_statuses_match_oracle(family, gen, sizes, status):
    for n in sizes:
        p = corpora.Problem(f"{family}-{n}", "native", gen(n), status(n))
        corpora.check_status(p, corpora.problem_formula(p), ht_valid_prop)


@pytest.mark.parametrize(
    "gen, sizes, status",
    [
        (corpora.horn, range(1, 8), lambda n: True),
        (lambda n: corpora.horn(n, gap=n // 2), range(1, 8), lambda n: False),
        (corpora.schwichtenberg, range(1, 8), lambda n: True),
        (corpora.de_bruijn, range(1, 4), lambda n: True),
        (corpora.g3_chain, range(1, 8), lambda n: n >= 3),
        (corpora.linearity_cycle, range(2, 9), lambda n: True),
        (corpora.weak_lem, range(1, 9), lambda n: True),
    ],
)
def test_family_constructions_match_oracle_up_to_eight_atoms(gen, sizes, status):
    for n in sizes:
        f = parse_native_formula(gen(n), close=True)
        assert corpora.atom_count(f) <= corpora.ORACLE_MAX_ATOMS
        assert ht_valid_prop(f) == status(n), (gen, n)


def test_check_status_aborts_on_disagreement():
    wrong = corpora.Problem("lem", "native", "p ; ~ p", True)
    with pytest.raises(corpora.StatusMismatch):
        corpora.check_status(wrong, corpora.problem_formula(wrong), ht_valid_prop)
    il_only = corpora.Problem("odd", "native", "p => p", False, True)
    with pytest.raises(corpora.StatusMismatch):
        corpora.check_status(il_only, corpora.problem_formula(il_only), ht_valid_prop)


def test_check_status_skips_large_and_first_order_formulas():
    big = corpora.Problem("horn-9", "native", corpora.horn(9), False)
    assert not corpora.check_status(big, corpora.problem_formula(big), ht_valid_prop)
    fo = corpora.Problem("fo", "native", "p(a) => p(a)", False)
    assert not corpora.check_status(fo, corpora.problem_formula(fo), ht_valid_prop)


def test_embed_prop_enumeration_mirrors_the_test_suite():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import support
    finally:
        sys.path.pop(0)
    ours = list(itertools.islice(corpora.enumerate_formulas(7), 4000))
    theirs = list(itertools.islice(support.enumerate_formulas(7), 4000))
    assert ours == theirs


def test_embed_prop_valid_part_is_the_acceptance_corpus_at_every_seed():
    valid, invalid = corpora.embed_prop_formulas(99, ht_valid_prop)
    assert len(valid) == 94
    assert len(invalid) == corpora.EMBED_INVALID
    assert not any(ht_valid_prop(f) for f in invalid)
    assert corpora.embed_prop_formulas(99, ht_valid_prop) == (valid, invalid)
    other_valid, other_invalid = corpora.embed_prop_formulas(7, ht_valid_prop)
    assert other_valid == valid and other_invalid != invalid


def test_mini_status_table_matches_oracle_and_corpus():
    decided = 0
    for p in corpora.mini_problems(MINI):
        decided += corpora.check_status(p, corpora.problem_formula(p, MINI), ht_valid_prop)
    assert decided == 19


# ============================================================
# Charging and percentiles
# ============================================================


def _attempt(valid=True, budget=2.0, known=None, backend="lht"):
    return corpora.Attempt("x", "x.p", "tptp", backend, budget, valid, known)


def test_charging_rules():
    solved = scoring.score(_attempt(), "Theorem", 0.3, True)
    assert (solved.solved, solved.failed, solved.charged) == (True, False, 0.3)
    refuted = scoring.score(_attempt(valid=False), "Non-Theorem", 0.1, None)
    assert refuted.solved and refuted.charged == 0.1
    timeout = scoring.score(_attempt(), "Timeout", 2.07, None)
    assert not timeout.solved and not timeout.failed and timeout.charged == 2.07
    gave_up = scoring.score(_attempt(backend="lj-ht"), "GaveUp", 0.5, None)
    assert not gave_up.solved and not gave_up.failed and gave_up.charged == 0.5
    for args in (("Error", 0.01, None), ("Theorem", 0.01, False)):
        out = scoring.score(_attempt(), *args)
        assert out.failed and not out.solved and out.charged == 2.0
    wrong = scoring.score(_attempt(valid=False), "Theorem", 0.01, None)
    assert wrong.failed and wrong.wrong and wrong.charged == 2.0
    unsound_refutation = scoring.score(_attempt(), "Non-Theorem", 0.01, None)
    assert unsound_refutation.failed and unsound_refutation.wrong


def test_known_failures_still_count_as_failures():
    known = scoring.score(_attempt(valid=False, known="Theorem"), "Theorem", 0.01, None)
    assert known.failed and known.expected and known.charged == 2.0
    other = scoring.score(_attempt(known="Error"), "Non-Theorem", 0.01, None)
    assert other.failed and not other.expected
    rejected = scoring.score(_attempt(known="Theorem"), "Theorem", 0.01, False)
    assert rejected.failed and not rejected.expected


def test_incomplete_beta_matches_known_values():
    assert scoring.betainc(1.0, 1.0, 0.3) == pytest.approx(0.3)
    assert scoring.betainc(2.0, 3.0, 0.4) == pytest.approx(0.5248)
    assert scoring.betainc(58.5, 58.5, 0.5) == pytest.approx(0.5)
    assert scoring.betainc(105.3, 11.7, 0.95) == pytest.approx(
        1 - scoring.betainc(11.7, 105.3, 0.05))
    special = pytest.importorskip("scipy.special")
    for a, b, x in ((105.3, 11.7, 0.88), (58.5, 58.5, 0.47), (3.3, 0.7, 0.2)):
        assert scoring.betainc(a, b, x) == pytest.approx(special.betainc(a, b, x), rel=1e-9)


def test_quantile_weights_every_order_statistic():
    assert scoring.quantile([5.0], 0.9) == pytest.approx(5.0)
    assert scoring.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == pytest.approx(2.5)
    xs = list(range(1, 101))
    assert scoring.quantile(xs, 0.5) == pytest.approx(50.5)
    assert 89.5 < scoring.quantile(xs, 0.9) < 91.5
    # one outlier at the rank moves it far less than it moves an order statistic
    assert abs(scoring.quantile(xs[:50] + [80] + xs[51:], 0.5) - 50.5) < 3
    with pytest.raises(ValueError):
        scoring.quantile([], 0.5)
    with pytest.raises(ValueError):
        scoring.quantile(xs, 1.0)


def test_summarize_charges_all_attempts():
    outs = [
        scoring.score(_attempt(), "Theorem", 0.1, True),
        scoring.score(_attempt(), "Timeout", 2.2, None),
        scoring.score(_attempt(), "Error", 0.0, None),
        scoring.score(_attempt(valid=False, known="Theorem"), "Theorem", 0.0, None),
    ]
    s = scoring.summarize([outs])
    assert s["solved"] == 1
    assert s["batch_s"] == pytest.approx(0.1 + 2.2 + 2.0 + 2.0)
    assert s["answer_p50_ms"] == pytest.approx(1000 * scoring.quantile([0.1, 2.2, 2.0, 2.0], 0.5))
    assert s["fail_frac"] == 0.5


def test_summarize_takes_each_attempts_median_over_its_runs():
    def one(t1, t2):
        return [scoring.score(_attempt(), "Theorem", t1, True),
                scoring.score(_attempt(), "Theorem", t2, True)]

    s = scoring.summarize([one(0.1, 1.0), one(0.3, 0.5), one(0.2, 0.9)])
    assert s["batch_s"] == pytest.approx(0.2 + 0.9)
    assert s["answer_p50_ms"] == pytest.approx(550.0)  # symmetric weights
    assert s["solved"] == 2


def test_summarize_counts_the_first_pass_and_times_every_run():
    first = [scoring.score(_attempt(), "Theorem", 0.4, True),
             scoring.score(_attempt(), "Timeout", 2.1, None)]
    rerun = [scoring.score(_attempt(), "Theorem", 0.2, True), None]
    slow = [scoring.score(_attempt(), "Timeout", 2.05, None), None]
    s = scoring.summarize([first, rerun, slow])
    assert s["batch_s"] == pytest.approx(0.4 + 2.1)
    assert s["solved"] == 1 and s["fail_frac"] == 0
    assert scoring.summarize([first, rerun])["batch_s"] == pytest.approx(0.3 + 2.1)


def test_only_attempts_charged_their_own_time_are_rerun():
    assert scoring.rerun(scoring.score(_attempt(), "Theorem", 0.1, True))
    assert scoring.rerun(scoring.score(_attempt(backend="lj-ht"), "GaveUp", 0.1, None))
    assert not scoring.rerun(scoring.score(_attempt(), "Timeout", 2.1, None))
    assert not scoring.rerun(scoring.score(_attempt(), "Error", 0.1, None))
    assert not scoring.rerun(scoring.score(_attempt(valid=False), "Theorem", 0.1, None))


# ============================================================
# Known failures of today's program
# ============================================================


@pytest.mark.parametrize("name", ["drinker", "syn971_witness"])
def test_conn_unsound_theorems_are_failures(name):
    problem = next(p for p in corpora.mini_problems(MINI) if p.name == name)
    attempt = corpora.Attempt(
        name, str(MINI / f"{name}.p"), "tptp", "conn", 1.0,
        corpora.logic_valid(problem, "conn"), corpora.MINI_KNOWN[("conn", name)])
    r = run_problem(attempt.path, RunConfig(backend="conn", timeout=1.0))
    out = scoring.score(attempt, r.status, r.seconds, None)
    assert out.failed and out.expected


def test_deep_horn_chain_is_a_failure_under_lht(tmp_path):
    p = next(p for p in corpora.lht_family_problems() if p.name == "horn-deep-300")
    path = tmp_path / "deep.htp"
    path.write_text(p.text)
    attempt = corpora.Attempt(p.name, str(path), "native", "lht", 1.0, p.ht_valid,
                              corpora.LHT_KNOWN[p.name])
    r = run_problem(path, RunConfig(backend="lht", timeout=1.0, fmt="native"))
    out = scoring.score(attempt, r.status, r.seconds, None)
    assert out.failed and out.expected


# ============================================================
# Spans, probes and one small run
# ============================================================


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", clock)
    t = spans.Tracer()
    t.start_attempt(0)
    t.begin("prove_conn")
    clock.now = 1.0
    t.begin("expand")
    clock.now = 1.5
    t.end()
    t.begin("build_matrix")
    clock.now = 3.0
    t.end()
    clock.now = 4.0
    t.end()
    t.finish_attempt()
    assert t.total["prove_conn"] == 4.0
    assert t.self_s["prove_conn"] == pytest.approx(2.0)
    assert t.self_s["expand"] == 0.5
    kept = {s["name"]: s for s in t.spans}
    assert kept["build_matrix"]["parent"] == kept["prove_conn"]["id"]
    assert "expand" not in kept
    assert t.aggregates == [{"attempt": 0, "name": "expand", "calls": 1,
                             "total_s": 0.5, "self_s": 0.5}]


def test_generator_spans_time_each_resumption(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", clock)
    t = spans.Tracer()

    def gen():
        clock.now += 1.0
        yield 1
        clock.now += 2.0
        yield 2

    t.start_attempt(0)
    wrapped = spans.timed(t, "prefix_unify", gen)
    it = wrapped()
    assert next(it) == 1
    clock.now += 10.0    # the consumer's time is not the generator's
    assert next(it) == 2
    it.close()
    t.finish_attempt()
    assert t.total["prefix_unify"] == 3.0
    assert not t.stack


def test_probe_restores_patched_names():
    import hatprove.connection as connection
    import hatprove.lht as lht
    import hatprove.runner as runner

    before = (runner.prove_lht, connection.expand, lht.LhtSearch)
    with spans.Probe(traced=True):
        assert runner.prove_lht is not before[0]
        assert connection.expand is not before[1]
    assert (runner.prove_lht, connection.expand, lht.LhtSearch) == before


def test_traced_pass_counts_repeat_and_proofs_check(tmp_path):
    problems = [p for p in corpora.lht_family_problems()
                if p.name in ("horn-5", "horn-gap-5", "schwicht-3", "weaklem-2")]
    attempts = []
    for p in problems:
        path = tmp_path / f"{p.name}.htp"
        path.write_text(p.text)
        attempts.append(corpora.Attempt(p.name, str(path), "native", "lht", 2.0, p.ht_valid))
    results = []
    for _ in range(2):
        with spans.Probe(traced=True) as probe:
            outcomes, decided, everything = run.run_pass(attempts, probe)
        results.append(decided)
        assert all(o.solved for o in outcomes)
        assert probe.tracer.total["check_proof"] > 0
    assert results[0] == results[1]
    assert results[0]["lht.nodes"] > 0 and results[0]["proofcheck.rule_apps"] > 0
    assert results[0]["lht.rounds"] == len(attempts)
    metrics = run.layer_metrics(attempts, outcomes, probe, decided, everything, 0.0, 0.0)
    assert metrics["solved.lht"] == (len(attempts), "count")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        k: unit for k, (_, unit) in metrics.items()}
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS


def test_measure_reruns_only_attempts_charged_their_own_time(tmp_path):
    problems = {p.name: p for p in corpora.lht_family_problems()}
    attempts = []
    for name, budget in (("horn-5", 2.0), ("horn-frontier-50", 0.05)):
        path = tmp_path / f"{name}.htp"
        path.write_text(problems[name].text)
        attempts.append(corpora.Attempt(name, str(path), "native", "lht", budget, True))
    passes, setups = run.measure(attempts, 0.5, lambda: 0.01)
    assert passes[0][0].solved and passes[0][1].status == "Timeout"
    assert len(passes) > 1
    assert all(p[0].solved and p[1] is None for p in passes[1:])
    assert setups == [0.01] * min(run.SETUP_REPEATS_MAX, len(passes) - 1)


def test_run_exits_nonzero_without_a_source_tree(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "mini-all", "--seed", "1", "--seconds", "1"]) == 2


def test_traced_pass_survives_the_deep_embedding_input(tmp_path):
    name, text = corpora.EMBED_DEEP
    path = tmp_path / f"{name}.htp"
    path.write_text(text)
    attempts = [corpora.Attempt(name, str(path), "native", backend, 0.5, True, "Error")
                for backend in ("lj-ht", "conn-ht")]
    with spans.Probe(traced=True) as probe:
        outcomes, decided, everything = run.run_pass(attempts, probe)
    assert all(o.failed and o.expected for o in outcomes)
    assert not decided and everything["embedding.axioms"] == 0
