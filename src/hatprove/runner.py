"""Problem running and benchmark reporting.

One problem file goes through parse, goal assembly, equality
preprocessing, optionally the intuitionistic embedding, and one of the
engines, all under one deadline: the engine gets what is left of the
budget.  Engine verdicts map onto SZS-style
statuses: Theorem for a proof, Non-Theorem for an exhausted complete
search or a checked countermodel, Timeout, GaveUp, and Error for
anything the pipeline rejects.
Embedding backends never report Non-Theorem: with the restricted axiom
set a failed embedded proof says nothing about the original formula,
so their refutations are downgraded to GaveUp.
"""

from __future__ import annotations

import csv
import io
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .connection import prove_conn
from .embedding import embed
from .frontend import add_equality_axioms, assemble_goal, parse_problem
from .lht import prove_lht
from .lj import prove_lj
from .verdicts import Verdict

BACKENDS = ("lht", "lj", "lj-ht", "conn", "conn-ht")

_STATUS = {
    Verdict.PROVED: "Theorem",
    Verdict.REFUTED: "Non-Theorem",
    Verdict.TIMEOUT: "Timeout",
}


@dataclass
class RunConfig:
    backend: str = "lht"
    timeout: float = 10.0
    fmt: str = "tptp"
    axiom_root: Optional[str] = None


@dataclass
class RunResult:
    problem: str
    backend: str
    status: str
    seconds: float
    rounds: int = 0
    message: str = ""
    countermodel: str = ""  # the checked model behind a Non-Theorem, as text

    @property
    def szs_line(self) -> str:
        return f"% SZS status {self.status} for {self.problem}"


def _engine(goal, cfg: RunConfig, start: float):
    """Run the backend on the goal with what is left of the budget at
    `start`; an embedding backend embeds the goal on that clock too."""
    if cfg.backend not in BACKENDS:
        raise ValueError(f"unknown backend {cfg.backend!r}")
    engine = cfg.backend.removesuffix("-ht")
    if engine != cfg.backend:
        goal = embed(goal)
    timeout = cfg.timeout - (time.monotonic() - start)
    if engine == "lht":
        return prove_lht(goal, timeout=timeout)
    if engine == "lj":
        return prove_lj(goal, timeout=timeout)
    return prove_conn(goal, timeout=timeout)


def load_goal(path, fmt: str, axiom_root=None):
    """Parse a problem file and assemble its goal with equality axioms.

    include() files are looked up under axiom_root, or the problem's
    directory when it is None.
    """
    root = axiom_root if axiom_root is not None else os.path.dirname(path)
    name = os.path.splitext(os.path.basename(path))[0]
    with open(path, "rb") as fh:
        prob = parse_problem(fh.read(), fmt, name=name, axiom_root=root)
    goal = assemble_goal(prob)
    # the reader has recorded whether `=` occurs in any formula
    return add_equality_axioms(goal) if prob.uses_equality else goal


def run_problem(path, cfg: RunConfig) -> RunResult:
    """Run one problem; pipeline failures become an Error result."""
    name = os.path.splitext(os.path.basename(path))[0]
    start = time.monotonic()
    try:
        goal = load_goal(path, cfg.fmt, cfg.axiom_root)
        result = _engine(goal, cfg, start)
    except Exception as exc:
        return RunResult(
            name, cfg.backend, "Error", time.monotonic() - start, message=str(exc)
        )
    status = _STATUS[result.verdict]
    if status == "Non-Theorem" and cfg.backend.endswith("-ht"):
        # the embedding only transports proofs, never refutations
        status = "GaveUp"
    return RunResult(
        name,
        cfg.backend,
        status,
        time.monotonic() - start,
        rounds=result.rounds,
        countermodel="" if result.countermodel is None else str(result.countermodel),
    )


# ============================================================
# Suites
# ============================================================

PROBLEM_SUFFIXES = (".p", ".tptp", ".htp")


def find_problems(root) -> list:
    root = Path(root)
    if root.is_file():
        return [root]
    out = [
        p
        for p in sorted(root.rglob("*"))
        if p.suffix in PROBLEM_SUFFIXES and p.is_file()
    ]
    return out


@dataclass
class Report:
    backend: str
    rows: list = field(default_factory=list)

    def count(self, status: str) -> int:
        return sum(1 for r in self.rows if r.status == status)

    @property
    def proved_under_1s(self) -> int:
        return sum(1 for r in self.rows if r.status == "Theorem" and r.seconds <= 1.0)

    @property
    def proved_1_to_10s(self) -> int:
        return sum(
            1 for r in self.rows if r.status == "Theorem" and 1.0 < r.seconds <= 10.0
        )

    def table(self) -> str:
        lines = [f"{'problem':<24} {'status':<12} {'seconds':>8} {'rounds':>7}"]
        for r in self.rows:
            lines.append(
                f"{r.problem:<24} {r.status:<12} {r.seconds:>8.2f} {r.rounds:>7}"
            )
        lines.append("")
        lines.append(
            f"backend {self.backend}: proved {self.count('Theorem')} "
            f"(<=1s {self.proved_under_1s}, 1-10s {self.proved_1_to_10s}), "
            f"refuted {self.count('Non-Theorem')}, "
            f"timeout {self.count('Timeout')}, "
            f"gaveup {self.count('GaveUp')}, "
            f"error {self.count('Error')}"
        )
        return "\n".join(lines)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["problem", "backend", "status", "seconds", "rounds"])
        for r in self.rows:
            w.writerow([r.problem, r.backend, r.status, f"{r.seconds:.3f}", r.rounds])
        return buf.getvalue()


def run_suite(paths, cfg: RunConfig, jobs: int = 1) -> Report:
    """Run problems (files or directories) and aggregate one report.

    Results are ordered by problem name regardless of job count.
    """
    problems: list = []
    for p in paths:
        problems.extend(find_problems(p))
    problems = sorted(set(problems))
    report = Report(cfg.backend)
    # the fork start method launches every worker at the first submit
    jobs = min(jobs, len(problems))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_problem, problems, [cfg] * len(problems)))
    else:
        rows = [run_problem(p, cfg) for p in problems]
    report.rows = sorted(rows, key=lambda r: r.problem)
    return report
