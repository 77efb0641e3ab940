"""hatprove benchmark: problems solved within budget and time to answer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  One client submits one attempt at a time, a (problem, backend)
pair run through `hatprove.runner.run_problem` under the backend's
budget (a closed loop with nothing running concurrently).  Workloads:

* lht-families: `lht` on generated propositional families (Horn chains,
  with and without a missing link, Schwichtenberg, de Bruijn, and the
  HT-only G3 chains, linearity cycles and weak-LEM conjunctions), plus
  one frontier size per heavy family and the depth-300 Horn chain.
* embed-prop: `lj-ht` and `conn-ht` on the HT-valid part of the
  embedding-soundness corpus and on a depth-100 Horn chain, plus
  `conn-ht` on HT-invalid formulas of that corpus drawn by `--seed`.
* mini-all: all five backends on `problems/mini`.

Every verdict is checked against a known status and every `lht` proof
is re-checked with `check_proof` after the attempt's clock stops.

Untraced (`--trace 0`) the first pass runs every attempt and gives the
counts.  Further passes rerun the attempts that ended within budget
without failing until `--seconds` seconds are up, the last one cut
short where they run out; an attempt's time is its median over the
passes.  The attempts run in an order shuffled by `--seed`, so that
attempts of like cost are spread over the run and a spell of slow host
does not fall on all of them.  Set-up is timed once at the start and
once after each rerun pass, at least SETUP_REPEATS times, and `setup_s`
is the median.  Traced (`--trace 1`) it runs one untraced and one traced
pass, prints the per-layer metrics of the traced pass and writes its
spans to `perfbench/out/`.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where `failed`
counts failures the status tables do not record as known.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MINI = ROOT / "problems" / "mini"
WORK = HERE / "work"
OUT = HERE / "out"

WORKLOADS = ("lht-families", "embed-prop", "mini-all")
BACKENDS = ("lht", "lj", "lj-ht", "conn", "conn-ht")
BUDGETS = {
    "lht-families": {"lht": 1.0},
    "embed-prop": {"lj-ht": 3.0, "conn-ht": 0.25},
    # conn-ht proves eq_symmetry only from a 1.7 s budget on: 0.8 s keeps
    # that frontier at twice the budget
    "mini-all": {"lht": 1.0, "lj": 1.0, "lj-ht": 1.0, "conn": 1.0, "conn-ht": 0.8},
}
SETUP_REPEATS = 5
SETUP_REPEATS_MAX = 15
QUICK_S = 0.05
REPEATS = 5
PROOF_CHECK_RECURSION = 10000

END_TO_END_UNITS = {
    "solved": "count",
    "batch_s": "s",
    "answer_p50_ms": "ms",
    "answer_p90_ms": "ms",
    "fail_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# ============================================================
# Set-up: import, corpus generation, labelling, problem files
# ============================================================


def import_program():
    """Import hatprove and the corpora afresh; returns the corpora module."""
    for name in list(sys.modules):
        if name in ("hatprove", "corpora") or name.startswith("hatprove."):
            del sys.modules[name]
    corpora = importlib.import_module("corpora")
    importlib.import_module("hatprove.runner")
    importlib.import_module("hatprove.proofcheck")
    return corpora


class Oracle:
    """`ht_valid_prop` with its time summed."""

    def __init__(self):
        from hatprove.oracle import ht_valid_prop

        self._valid = ht_valid_prop
        self.seconds = 0.0

    def __call__(self, f) -> bool:
        start = time.perf_counter()
        try:
            return self._valid(f)
        finally:
            self.seconds += time.perf_counter() - start


def build_attempts(workload: str, seed: int, workdir: Path):
    """The workload's attempts, in run order, and the labelling oracle."""
    corpora = import_program()
    from hatprove.frontend import parse_native_formula, to_native

    oracle = Oracle()
    budgets = BUDGETS[workload]
    attempts = []
    if workload == "lht-families":
        for p in corpora.lht_family_problems():
            corpora.check_status(p, corpora.problem_formula(p), oracle)
            path = workdir / f"{p.name}.htp"
            path.write_text(p.text, encoding="utf-8")
            attempts.append(corpora.Attempt(
                p.name, str(path), "native", "lht", budgets["lht"], p.ht_valid,
                corpora.LHT_KNOWN.get(p.name)))
    elif workload == "embed-prop":
        valid, invalid = corpora.embed_prop_formulas(seed, oracle)
        for i, f in enumerate(valid + invalid):
            name = f"{'valid' if i < len(valid) else 'invalid'}-{i}"
            text = to_native(f)
            if parse_native_formula(text, close=True) != f:
                raise corpora.StatusMismatch(f"{name}: {text} does not parse back")
            path = workdir / f"{name}.htp"
            path.write_text(text, encoding="utf-8")
            # lj-ht runs out its budget on most invalid formulas, which
            # would make the batch time depend on the seed's draw
            backends = ("lj-ht", "conn-ht") if i < len(valid) else ("conn-ht",)
            for backend in backends:
                attempts.append(corpora.Attempt(
                    name, str(path), "native", backend, budgets[backend], i < len(valid)))
        name, text = corpora.EMBED_DEEP
        path = workdir / f"{name}.htp"
        path.write_text(text, encoding="utf-8")
        for backend in ("lj-ht", "conn-ht"):
            attempts.append(corpora.Attempt(
                name, str(path), "native", backend, budgets[backend], True, "Error"))
    else:
        for p in corpora.mini_problems(MINI):
            corpora.check_status(p, corpora.problem_formula(p, MINI), oracle)
            for backend in BACKENDS:
                attempts.append(corpora.Attempt(
                    p.name, str(MINI / f"{p.name}.p"), "tptp", backend, budgets[backend],
                    corpora.logic_valid(p, backend), corpora.MINI_KNOWN.get((backend, p.name))))
    random.Random(seed).shuffle(attempts)
    return attempts, oracle


def setup(workload: str, seed: int, workdir: Path):
    """Set up once; returns the attempts, the oracle and the time taken.

    Every set-up of one workload and seed writes the same files, so a
    repeated set-up leaves the attempts of the last one valid.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    gc.collect()
    start = time.perf_counter()
    workdir.mkdir(parents=True)
    attempts, oracle = build_attempts(workload, seed, workdir)
    return attempts, oracle, time.perf_counter() - start


def measure(attempts, seconds: float, setup_again):
    """Untraced passes for `seconds` seconds; returns them and set-up times.

    The first pass runs every attempt.  Further passes rerun the
    attempts whose time a rerun can change (`scoring.rerun`) until the
    time is up, the last of them cut short where it runs out.  A set-up
    runs after each of them, so that the set-up times, like the attempt
    times, sample the host across the whole measurement.
    """
    from scoring import rerun
    from spans import Probe

    begin = time.perf_counter()
    with Probe(traced=False) as probe:
        passes = [run_pass(attempts, probe)[0]]
    only = {i for i, o in enumerate(passes[0]) if rerun(o)}
    deadline = begin + seconds
    setups = []
    while only and time.perf_counter() < deadline:
        with Probe(traced=False) as probe:
            passes.append(run_pass(attempts, probe, only, deadline)[0])
        if len(setups) < SETUP_REPEATS_MAX:
            setups.append(setup_again())
    return passes, setups


# ============================================================
# Passes
# ============================================================


def check_certificate(attempt, status: str, result):
    """Re-check an lht proof; None when the attempt has no certificate."""
    if attempt.backend != "lht" or status != "Theorem":
        return None
    from hatprove.proofcheck import ProofError, check_proof

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, PROOF_CHECK_RECURSION))
    try:
        check_proof(result.proof)
        return True
    except ProofError:
        return False
    finally:
        sys.setrecursionlimit(limit)


def run_pass(attempts, probe, only=None, deadline=None):
    """Run every attempt once, or those whose index is in `only`.

    With a `deadline` (a `time.perf_counter()` value) no attempt starts
    after it.  Returns the outcomes, None for each attempt not run, and,
    traced, the counts.  Untraced, an attempt answered within QUICK_S runs
    REPEATS times in a row and is charged its median time: at a
    millisecond a single run says more about the host than about the
    program.  Its verdict and certificate are those of the first run.
    """
    from collections import Counter
    from contextlib import nullcontext

    from hatprove.runner import RunConfig, run_problem
    from scoring import score

    tracer = probe.tracer
    span = tracer.span if tracer else (lambda name: nullcontext())
    outcomes = []
    decided, everything = Counter(), Counter()
    for i, a in enumerate(attempts):
        if (only is not None and i not in only) or (
                deadline is not None and time.perf_counter() > deadline):
            outcomes.append(None)
            continue
        # an attempt should not pay for collecting the garbage of the last
        gc.collect()
        probe.start_attempt(f"{a.backend}:{a.problem}")
        cfg = RunConfig(backend=a.backend, timeout=a.budget, fmt=a.fmt)
        with span("run_problem"):
            r = run_problem(a.path, cfg)
        with span("check_proof"):
            cert = check_certificate(a, r.status, probe.result)
        seconds = r.seconds
        if not tracer and r.status not in ("Timeout", "Error") and seconds < QUICK_S:
            times = [seconds]
            for _ in range(REPEATS - 1):
                gc.collect()
                times.append(run_problem(a.path, cfg).seconds)
            seconds = statistics.median(times)
        outcomes.append(score(a, r.status, seconds, cert))
        if tracer:
            verdict = r.status not in ("Timeout", "Error")
            counts = probe.counts(verdict)
            if cert is not None:
                counts["proofcheck.rule_apps"] = probe.result.rule_apps
            everything.update(counts)
            if verdict:
                decided.update(counts)
            tracer.finish_attempt()
    return outcomes, decided, everything


def layer_metrics(attempts, outcomes, probe, decided, everything, oracle_s, overhead_s):
    """Per-layer metrics of a traced pass, as {name: (value, unit)}."""
    from spans import PREFIX_NAMES

    t = probe.tracer.total
    own = probe.tracer.self_s
    prefixes_s = sum(t[n] for n in PREFIX_NAMES)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    checks = everything["connection.sat_checks"]
    overshoots = [
        1000 * (o.seconds - a.budget)
        for a, o in zip(attempts, outcomes)
        if o.status == "Timeout"
    ]
    m = {
        "frontend.parse_s": (t["parse_problem"], "s"),
        "frontend.goal_s": (t["assemble_goal"] + t["add_equality_axioms"], "s"),
        "embedding.s": (t["embed"], "s"),
        "embedding.axioms": (decided["embedding.axioms"], "count"),
        "embedding.goal_size": (decided["embedding.goal_size"], "count"),
        "lht.s": (t["prove_lht"], "s"),
        "lht.nodes": (decided["lht.nodes"], "count"),
        "lht.us_per_node": (per(own["prove_lht"], everything["lht.nodes"], 1e6), "us"),
        "lht.rounds": (decided["lht.rounds"], "count"),
        "lht.blocked_rounds": (decided["lht.blocked_rounds"], "count"),
        "lj.s": (t["prove_lj"], "s"),
        "lj.nodes": (decided["lj.nodes"], "count"),
        "lj.us_per_node": (per(own["prove_lj"], everything["lj.nodes"], 1e6), "us"),
        "lj.rounds": (decided["lj.rounds"], "count"),
        "matrix.builds": (decided["matrix.builds"], "count"),
        "matrix.build_s": (t["build_matrix"], "s"),
        "matrix.literals": (decided["matrix.literals"], "count"),
        "matrix.copies": (decided["matrix.copies"], "count"),
        "connection.self_s": (own["prove_conn"], "s"),
        "connection.steps": (decided["connection.steps"], "count"),
        "connection.rounds": (decided["connection.rounds"], "count"),
        "connection.sat_checks": (decided["connection.sat_checks"], "count"),
        "connection.sat_cache_hit_frac": (
            per(checks - everything["connection.sat_misses"], checks), "ratio"),
        "prefixes.s": (prefixes_s, "s"),
        "prefixes.calls": (decided["prefixes.calls"], "count"),
        "prefixes.share": (per(prefixes_s, t["prove_conn"]), "ratio"),
        "proofcheck.s": (t["check_proof"], "s"),
        "proofcheck.rule_apps": (decided["proofcheck.rule_apps"], "count"),
        "oracle.s": (oracle_s, "s"),
        "runner.self_s": (own["run_problem"], "s"),
        "runner.overshoot_ms_max": (max(overshoots, default=0.0), "ms"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for backend in BACKENDS:
        m[f"solved.{backend}"] = (
            sum(o.solved for a, o in zip(attempts, outcomes) if a.backend == backend),
            "count",
        )
    return m


# ============================================================
# Main
# ============================================================


def _parser():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "hatprove" / "__init__.py").is_file() or not MINI.is_dir():
        print(f"no hatprove source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from scoring import summarize
    from spans import Probe

    workdir = WORK / f"{args.workload}-{args.seed}"

    def setup_again() -> float:
        return setup(args.workload, args.seed, workdir)[2]

    try:
        attempts, oracle, setup_s = setup(args.workload, args.seed, workdir)
        if args.trace:
            with Probe(traced=False) as probe:
                passes = [run_pass(attempts, probe)[0]]
            with Probe(traced=True) as probe:
                traced, decided, everything = run_pass(attempts, probe)
            runs = passes + [traced]
            OUT.mkdir(exist_ok=True)
            probe.tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            passes, setups = measure(attempts, args.seconds, setup_again)
            runs = passes
            setups.append(setup_s)
            while len(setups) < SETUP_REPEATS:
                setups.append(setup_again())
            setup_s = statistics.median(setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for i, outcomes in enumerate(runs):
        kind = "traced" if args.trace and i == len(runs) - 1 else "untraced"
        done = [o for o in outcomes if o is not None]
        print(f"pass {i + 1} ({kind}): {len(done)} attempts, "
              f"solved {sum(o.solved for o in done)}, failed {sum(o.failed for o in done)}, "
              f"charged {sum(o.charged for o in done):.3f} s")

    if args.trace:
        overhead = summarize([traced])["batch_s"] - summarize(passes)["batch_s"]
        metrics = layer_metrics(attempts, traced, probe, decided, everything,
                                oracle.seconds, overhead)
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in summarize(passes).items()}
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    every = [o for outcomes in runs for o in outcomes if o is not None]
    print(json.dumps({
        "correct": not any(o.wrong and not o.expected for o in every),
        "attempted": len(every),
        "failed": sum(o.failed and not o.expected for o in every),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
