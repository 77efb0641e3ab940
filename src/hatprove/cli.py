"""Command-line driver.

    hatprove [--backend lht|lj|lj-ht|conn|conn-ht] [--timeout SECS]
             [--format tptp|native] [--axiom-root DIR] [--oracle]
             [--emit-axioms] [--emit-matrix]
             [--csv FILE] [--jobs N] PATH...

Paths are problem files or directories of them.  Exit status 0 means
the run completed (individual problem verdicts are in the output), 2
means no problems were found, and 1 is a harness failure or an output
pipe closed by its reader (as in `hatprove DIR | head -1`).
"""

from __future__ import annotations

import argparse
import os
import sys

from .embedding import ht_axioms
from .frontend import to_native
from .matrix import build_matrix, matrix_str
from .oracle import ht_countermodel
from .runner import BACKENDS, RunConfig, find_problems, load_goal, run_problem, run_suite


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hatprove",
        description="Theorem provers for the first-order logic of here-and-there.",
    )
    ap.add_argument("paths", nargs="+", metavar="PATH")
    ap.add_argument("--backend", choices=BACKENDS, default="lht")
    ap.add_argument("--timeout", type=float, default=10.0, metavar="SECS")
    ap.add_argument("--format", choices=("tptp", "native"), default="tptp")
    ap.add_argument("--axiom-root", default=None, metavar="DIR",
                    help="directory for include() files (default: problem's directory)")
    ap.add_argument("--oracle", action="store_true",
                    help="decide propositional problems by model enumeration")
    ap.add_argument("--emit-axioms", action="store_true",
                    help="print the generated embedding axioms and exit")
    ap.add_argument("--emit-matrix", action="store_true",
                    help="print the prefixed matrix of the goal and exit")
    ap.add_argument("--csv", default=None, metavar="FILE",
                    help="write per-problem results as CSV")
    ap.add_argument("--jobs", type=int, default=1, metavar="N")
    return ap


def main(argv=None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush
        # at interpreter exit cannot fail again, and stop quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _main(argv) -> int:
    args = _parser().parse_args(argv)
    problems = []
    for p in args.paths:
        problems.extend(find_problems(p))
    if not problems:
        print("no problem files found", file=sys.stderr)
        return 2

    if args.emit_axioms or args.emit_matrix or args.oracle:
        for path in problems:
            try:
                goal = load_goal(path, args.format, args.axiom_root)
                if args.emit_axioms:
                    for ax in ht_axioms(goal):
                        print(to_native(ax))
                elif args.emit_matrix:
                    print(matrix_str(build_matrix(goal)))
                else:
                    counter = ht_countermodel(goal)
                    status = "Non-Theorem" if counter else "Theorem"
                    print(f"% SZS status {status} for {path.stem}")
                    if counter:
                        print(f"% countermodel: {counter}")
            except Exception as exc:
                print(f"% SZS status Error for {path.stem} : {exc}")
        return 0

    cfg = RunConfig(
        backend=args.backend,
        timeout=args.timeout,
        fmt=args.format,
        axiom_root=args.axiom_root,
    )
    if len(problems) == 1:
        result = run_problem(problems[0], cfg)
        print(result.szs_line)
        if result.message:
            print(f"% {result.message}")
        if result.countermodel:
            print(f"% countermodel: {result.countermodel}")
        print(f"% time: {result.seconds:.2f}s, deepening rounds: {result.rounds}")
        return 0
    report = run_suite(args.paths, cfg, jobs=args.jobs)
    for row in report.rows:
        print(row.szs_line)
    print()
    print(report.table())
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    return 0


if __name__ == "__main__":
    sys.exit(main())
