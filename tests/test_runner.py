import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from hatprove.cli import main
from hatprove.runner import RunConfig, find_problems, run_problem, run_suite

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


def test_embedding_backend_never_refutes(tmp_path):
    path = write(tmp_path, "lem.p", "fof(c, conjecture, p | ~p).")
    for backend in ("lj-ht", "conn-ht"):
        result = run_problem(path, RunConfig(backend=backend, timeout=5))
        assert result.status in ("GaveUp", "Timeout"), backend


def test_native_format(tmp_path):
    path = write(tmp_path, "f1.htp", "( (p=>q) ; (q=>p) )")
    result = run_problem(path, RunConfig(backend="lht", fmt="native", timeout=5))
    assert result.status == "Theorem"


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


def test_cli_closed_pipe_exits_quietly(tmp_path):
    write(tmp_path, "t1.p", "fof(c, conjecture, p => p).")
    write(tmp_path, "t2.p", "fof(c, conjecture, p | ~p).")
    paths = [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hatprove.cli", str(tmp_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the reader is gone before anything is written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""


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


def test_cli_backend_flags(tmp_path, capsys):
    path = write(tmp_path, "f3.p", "fof(c, conjecture, p => p).")
    for backend in ("lj", "conn", "lj-ht", "conn-ht"):
        code = main([str(path), "--backend", backend, "--timeout", "5"])
        assert code == 0
    out = capsys.readouterr().out
    assert out.count("Theorem") == 4


def test_cli_conn_flags(tmp_path, capsys):
    path = write(tmp_path, "f3.p", "fof(c, conjecture, p => p).")
    code = main([str(path), "--backend", "conn", "--no-reg", "--no-rb", "--timeout", "5"])
    assert code == 0
    assert "Theorem" in capsys.readouterr().out


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "hatprove.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "--backend" in proc.stdout
