import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hatprove.cli as cli
from hatprove.cli import main
from hatprove.runner import RunConfig, find_problems, run_problem, run_suite
from support import horn

MINI = Path(__file__).parent.parent / "problems" / "mini"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_theorem_problem(tmp_path):
    path = write(tmp_path, "f1.p", "fof(c, conjecture, (p => q) | (q => p)).")
    result = run_problem(path, RunConfig(backend="lht", timeout=5))
    assert result.status == "Theorem"
    assert result.szs_line == "% SZS status Theorem for f1"


def test_non_theorem_problem(tmp_path):
    path = write(tmp_path, "lem.p", "fof(c, conjecture, p | ~p).")
    result = run_problem(path, RunConfig(backend="lht", timeout=5))
    assert result.status == "Non-Theorem"


def test_countermodel_reaches_the_result():
    cfg = RunConfig(backend="lht", timeout=5)
    result = run_problem(MINI / "quantifier_shift.p", cfg)
    assert result.status == "Non-Theorem"
    assert result.countermodel == "D={0..1} H={} T={p(0,1),p(1,0)}"
    # a plain string, so it crosses the --jobs process boundary
    assert pickle.loads(pickle.dumps(result)).countermodel == result.countermodel
    # an exhaustive propositional search leaves no model behind
    assert run_problem(MINI / "peirce.p", cfg).countermodel == ""


# HT-invalid, but its only countermodels are infinite: an irreflexive,
# transitive relation in which every element has a successor.  Neither
# a proof nor a finite countermodel ends the search before its deadline.
NO_FINITE_COUNTERMODEL = (
    "fof(c, conjecture, ~((! [X] : ~r(X,X)) "
    "& (! [X,Y,Z] : ((r(X,Y) & r(Y,Z)) => r(X,Z))) "
    "& (! [X] : ? [Y] : r(X,Y)))).\n"
)


def test_forced_timeout(tmp_path):
    path = write(tmp_path, "hard.p", NO_FINITE_COUNTERMODEL)
    result = run_problem(path, RunConfig(backend="lht", timeout=0.001))
    assert result.status == "Timeout"


def test_parse_error_is_error_status(tmp_path):
    path = write(tmp_path, "bad.p", "fof(c, conjecture, p & ).")
    result = run_problem(path, RunConfig(backend="lht"))
    assert result.status == "Error"
    assert result.message


def test_defined_word_is_an_error_on_every_backend(tmp_path):
    path = write(tmp_path, "true.p", "fof(c, conjecture, $true).")
    for backend in ("lht", "lj", "lj-ht", "conn", "conn-ht"):
        result = run_problem(path, RunConfig(backend=backend, timeout=5))
        assert result.status == "Error", backend
        assert "$true" in result.message, backend


def test_embedding_backend_never_refutes(tmp_path):
    path = write(tmp_path, "lem.p", "fof(c, conjecture, p | ~p).")
    for backend in ("lj-ht", "conn-ht"):
        result = run_problem(path, RunConfig(backend=backend, timeout=5))
        assert result.status in ("GaveUp", "Timeout"), backend


def test_native_format(tmp_path):
    path = write(tmp_path, "f1.htp", "( (p=>q) ; (q=>p) )")
    result = run_problem(path, RunConfig(backend="lht", fmt="native", timeout=5))
    assert result.status == "Theorem"


@pytest.mark.parametrize("backend", ["lht", "lj", "conn"])
def test_terms_deeper_than_the_recursion_limit(tmp_path, backend):
    # substitution, resolution, unification, the occurs check, term
    # comparison, clause copies and prefix signatures keep explicit stacks
    fa = "f(" * 5000 + "a" + ")" * 5000
    fx = "f(" * 5000 + "X" + ")" * 5000
    goals = [
        f"p({fa}) => p({fa})",
        f"(all X: p(X)) => p({fa})",
        f"(all X: (p(X) => q(X))) => (p({fa}) => q({fa}))",
        f"(all X: p({fx})) => p({fa})",
    ]
    for i, text in enumerate(goals):
        path = write(tmp_path, f"deep{i}.htp", text)
        result = run_problem(path, RunConfig(backend=backend, fmt="native", timeout=10))
        assert result.status == "Theorem", (i, result.message)


def test_equality_pipeline(tmp_path):
    path = write(tmp_path, "eq.p", "fof(c, conjecture, a = b => b = a).")
    result = run_problem(path, RunConfig(backend="lht", timeout=10))
    assert result.status == "Theorem"


def test_run_suite_aggregates(tmp_path):
    write(tmp_path, "t1.p", "fof(c, conjecture, p => p).")
    write(tmp_path, "t2.p", "fof(c, conjecture, p | ~p).")
    write(tmp_path, "t3.p", "fof(c, conjecture, ~p | ~~p).")
    report = run_suite([tmp_path], RunConfig(backend="lht", timeout=5))
    assert [r.problem for r in report.rows] == ["t1", "t2", "t3"]
    assert report.count("Theorem") == 2
    assert report.count("Non-Theorem") == 1
    assert report.count("Theorem") + report.count("Non-Theorem") == len(report.rows)
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0] == "problem,backend,status,seconds,rounds"
    assert len(csv_text.splitlines()) == 4


def test_run_suite_parallel_matches_serial(tmp_path):
    for i, text in enumerate(
        ["fof(c,conjecture,p=>p).", "fof(c,conjecture,p|~p).", "fof(c,conjecture,q=>q)."]
    ):
        write(tmp_path, f"j{i}.p", text)
    serial = run_suite([tmp_path], RunConfig(backend="lht", timeout=5), jobs=1)
    parallel = run_suite([tmp_path], RunConfig(backend="lht", timeout=5), jobs=2)
    assert [(r.problem, r.status) for r in serial.rows] == [
        (r.problem, r.status) for r in parallel.rows
    ]


def test_run_suite_forks_no_more_workers_than_problems(tmp_path, monkeypatch):
    # a stand-in pool that records its size and runs every call in this
    # process, so no worker is started
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    write(tmp_path, "a.p", "fof(c,conjecture,p=>p).")
    write(tmp_path, "b.p", "fof(c,conjecture,q=>q).")
    report = run_suite([tmp_path], RunConfig(backend="lht", timeout=5), jobs=64)
    assert sizes == [2]
    assert [r.status for r in report.rows] == ["Theorem", "Theorem"]


def test_mini_corpus_smoke_lht():
    report = run_suite([MINI], RunConfig(backend="lht", timeout=2))
    assert len(report.rows) == 30
    assert report.count("Error") == 0
    assert report.count("Theorem") == 23
    assert report.count("Non-Theorem") == 7
    assert report.count("Timeout") == 0


def test_find_problems_empty(tmp_path):
    assert find_problems(tmp_path) == []


def test_deadline_honored_with_grace(tmp_path):
    path = write(tmp_path, "hard.p", NO_FINITE_COUNTERMODEL)
    result = run_problem(path, RunConfig(backend="lht", timeout=0.5))
    assert result.status == "Timeout"
    assert result.seconds < 0.5 + 0.5  # cooperative deadline plus grace


def test_wide_matrix_build_keeps_the_deadline(tmp_path):
    # the embedded 14-link Horn chain has a wide signature: its matrix
    # must be built in a fraction of the budget, which nothing interrupts
    path = write(tmp_path, "horn14.htp", horn(14))
    result = run_problem(path, RunConfig(backend="conn-ht", fmt="native", timeout=0.25))
    assert result.status == "Timeout"
    assert result.seconds < 1.0


def test_embedding_is_charged_to_the_deadline(monkeypatch):
    import time

    from hatprove import runner

    embed, prove_lj = runner.embed, runner.prove_lj
    budgets = []

    def slow_embed(goal):
        time.sleep(0.3)
        return embed(goal)

    def recording_prove_lj(goal, timeout):
        budgets.append(timeout)
        return prove_lj(goal, timeout=timeout)

    monkeypatch.setattr(runner, "embed", slow_embed)
    monkeypatch.setattr(runner, "prove_lj", recording_prove_lj)
    result = run_problem(MINI / "linearity_dist.p", RunConfig(backend="lj-ht", timeout=0.5))
    assert result.status == "Timeout"
    assert budgets and budgets[0] <= 0.5 - 0.3  # the engine gets what is left
    assert result.seconds < 0.5 + 0.5  # cooperative deadline plus grace


# ============================================================
# CLI entry point
# ============================================================


def test_cli_single_problem(tmp_path, capsys):
    path = write(tmp_path, "f1.p", "fof(c, conjecture, (p => q) | (q => p)).")
    code = main([str(path), "--backend", "lht", "--timeout", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "% SZS status Theorem for f1" in out


def test_cli_prints_countermodel(capsys):
    code = main([str(MINI / "quantifier_shift.p"), "--timeout", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "% SZS status Non-Theorem for quantifier_shift" in out
    assert "% countermodel: D={0..1} H={} T={p(0,1),p(1,0)}" in out


def _cli_env() -> dict:
    """The environment for running the CLI from this checkout."""
    paths = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def test_cli_closed_pipe_exits_quietly(tmp_path):
    write(tmp_path, "t1.p", "fof(c, conjecture, p => p).")
    write(tmp_path, "t2.p", "fof(c, conjecture, p | ~p).")
    proc = subprocess.Popen(
        [sys.executable, "-m", "hatprove.cli", str(tmp_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_cli_env(),
    )
    proc.stdout.close()  # the reader is gone before anything is written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""


def test_cli_same_verdicts_under_optimize():
    # python -O strips asserts: no check the verdicts rest on may be one
    files = [str(MINI / "instantiation.p"), str(MINI / "peirce.p")]
    for backend in ("lht", "conn"):
        szs = []
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "hatprove.cli", "--backend", backend,
                 "--timeout", "5", *files],
                capture_output=True,
                text=True,
                env=_cli_env(),
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            szs.append([line for line in proc.stdout.splitlines() if "SZS" in line])
        assert szs[0] == szs[1], backend
        assert szs[1] == [
            "% SZS status Theorem for instantiation",
            "% SZS status Non-Theorem for peirce",
        ], backend


def test_cli_empty_dir_exit_code(tmp_path):
    assert main([str(tmp_path)]) == 2


def test_cli_oracle(tmp_path, capsys):
    path = write(tmp_path, "lem.p", "fof(c, conjecture, p | ~p).")
    code = main([str(path), "--oracle"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Non-Theorem" in out and "countermodel" in out


def test_cli_oracle_rejects_quantifiers(tmp_path, capsys):
    path = write(tmp_path, "q.p", "fof(c, conjecture, ![X]: p(X)).")
    main([str(path), "--oracle"])
    assert "Error" in capsys.readouterr().out


def test_cli_emit_axioms(tmp_path, capsys):
    path = write(tmp_path, "f1.p", "fof(c, conjecture, (p => q) | (q => p)).")
    main([str(path), "--emit-axioms"])
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 6
    assert "(p ; ((p => q) ; ~ q))" in out


def test_cli_emit_matrix(tmp_path, capsys):
    path = write(tmp_path, "f3.p", "fof(c, conjecture, p => p).")
    main([str(path), "--emit-matrix"])
    assert capsys.readouterr().out.strip() == "{{p^1:a1V1},{p^0:a1a2}}"


def test_cli_emit_matrix_prints_every_mini_problem(capsys):
    problems = sorted(MINI.glob("*.p"))
    assert len(problems) == 30
    for path in problems:
        assert main([str(path), "--emit-matrix"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("{{") and out.endswith("}}\n"), (path.stem, out)
        if path.stem == "quantifier_shift":
            # a prefix variable inside a skolem term prints by its name
            assert out == "{{p(x1,#f1(x1,V1))^1:a1V1V2},{p(#f2(x2),x2)^0:a1a2(x2)a3(x2)}}\n"


def test_one_goal_pipeline_for_runner_and_cli(tmp_path, monkeypatch, capsys):
    import hatprove.runner as runner

    # both go through the runner's own names, which tracing replaces
    seen = []
    assemble = runner.assemble_goal
    monkeypatch.setattr(
        runner, "assemble_goal", lambda prob: seen.append(prob.name) or assemble(prob)
    )
    path = write(tmp_path, "imp.p", "fof(c, conjecture, p => p).")
    assert run_problem(path, RunConfig(backend="lht", timeout=5)).status == "Theorem"
    assert main([str(path), "--emit-matrix"]) == 0
    assert seen == ["imp", "imp"]


def test_cli_suite_with_csv(tmp_path, capsys):
    write(tmp_path, "t1.p", "fof(c, conjecture, p => p).")
    write(tmp_path, "t2.p", "fof(c, conjecture, p | ~p).")
    csv_path = tmp_path / "out.csv"
    code = main([str(tmp_path), "--backend", "lht", "--csv", str(csv_path)])
    assert code == 0
    assert csv_path.exists()
    out = capsys.readouterr().out
    assert "% SZS status" in out and "backend lht" in out


def test_cli_csv_for_one_problem(tmp_path, capsys):
    # a directory that holds one problem gets the single-problem output
    # and still writes the CSV
    (tmp_path / "probs").mkdir()
    write(tmp_path / "probs", "t1.p", "fof(c, conjecture, p => p).")
    csv_path = tmp_path / "out.csv"
    assert main([str(tmp_path / "probs"), "--csv", str(csv_path)]) == 0
    assert "% SZS status Theorem for t1" in capsys.readouterr().out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "problem,backend,status,seconds,rounds"
    assert lines[1].startswith("t1,lht,Theorem,") and len(lines) == 2


def test_cli_backend_flags(tmp_path, capsys):
    path = write(tmp_path, "f3.p", "fof(c, conjecture, p => p).")
    for backend in ("lj", "conn", "lj-ht", "conn-ht"):
        code = main([str(path), "--backend", backend, "--timeout", "5"])
        assert code == 0
    out = capsys.readouterr().out
    assert out.count("Theorem") == 4


def test_cli_conn_flags(tmp_path, capsys):
    path = write(tmp_path, "f3.p", "fof(c, conjecture, p => p).")
    code = main([str(path), "--backend", "conn", "--timeout", "5"])
    assert code == 0
    assert "Theorem" in capsys.readouterr().out
    # the connection prover has one configuration; --no-rb and --no-reg are gone
    for flag in ("--no-rb", "--no-reg"):
        with pytest.raises(SystemExit) as exc:
            main([str(path), "--backend", "conn", flag])
        assert exc.value.code == 2


def test_usage_text_names_the_parser_options():
    options = {
        opt
        for action in cli._parser()._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    # the docstring's usage block is its second paragraph
    for usage in (cli.__doc__.split("\n\n")[1], block):
        assert set(re.findall(r"--[a-z][a-z-]*", usage)) == options


def test_readme_library_block_prints_its_comments(capsys):
    # each line the block prints is the `# ` comment line below its print
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert len(expected) == sum(line.startswith("print(") for line in block.splitlines())
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == expected


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "hatprove.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "--backend" in proc.stdout
