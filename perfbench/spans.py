"""Spans and counters recorded from outside the program.

`Probe` replaces the names that one module imports from another (for
example `hatprove.runner.prove_lht`) with wrappers, and restores them on
exit.  Untraced, it only keeps the `ProverResult` each engine call
returns, so that certificates can be checked after the attempt.  Traced,
every wrapped call becomes a span (name, start, end, parent, attempt),
and the search classes are replaced by subclasses that register their
instances, whose counters are read when the attempt ends.

Self time is a span's duration minus the time its child spans cover.
Calls into `hatprove.prefixes` and `copy_clause` are too many to keep
one by one; they are kept as one aggregate span per attempt and name.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ENGINES = ("prove_lht", "prove_lj", "prove_conn")

# spans kept one by one; the others are aggregated per attempt
KEPT = frozenset(
    ("run_problem", "parse_problem", "assemble_goal", "add_equality_axioms",
     "embed", "build_matrix", "check_proof") + ENGINES
)

# every function hatprove.connection imports from hatprove.prefixes
PREFIX_NAMES = ("_solve", "constraints_signature", "expand", "prefix_unify",
                "resolved_string")


class Tracer:
    """Open spans on a stack; finished spans and per-name sums in memory."""

    def __init__(self):
        self.stack = []            # [id, name, start, child seconds]
        self.spans = []            # kept spans, as dicts
        self.aggregates = []       # per attempt and name, for the others
        self.total = Counter()     # name -> seconds, over the whole pass
        self.self_s = Counter()
        self.calls = Counter()     # name -> calls in the current attempt
        self.attempt = None
        self._attempt_total = Counter()
        self._attempt_self = Counter()
        self._next_id = 0

    def begin(self, name: str) -> None:
        self._next_id += 1
        self.stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def end(self) -> None:
        stop = time.perf_counter()
        sid, name, start, child = self.stack.pop()
        dur = stop - start
        self._attempt_total[name] += dur
        self._attempt_self[name] += dur - child
        self.calls[name] += 1
        parent = None
        if self.stack:
            self.stack[-1][3] += dur
            parent = self.stack[-1][0]
        if name in KEPT:
            self.spans.append({"attempt": self.attempt, "id": sid, "parent": parent,
                               "name": name, "start": start, "end": stop})

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def start_attempt(self, attempt_id) -> None:
        self.attempt = attempt_id
        self.stack.clear()
        self.calls.clear()
        self._attempt_total.clear()
        self._attempt_self.clear()

    def finish_attempt(self) -> None:
        for name, secs in self._attempt_total.items():
            self.total[name] += secs
            self.self_s[name] += self._attempt_self[name]
            if name not in KEPT:
                self.aggregates.append({
                    "attempt": self.attempt, "name": name, "calls": self.calls[name],
                    "total_s": secs, "self_s": self._attempt_self[name]})

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans + self.aggregates:
                fh.write(json.dumps(record) + "\n")


def timed(tracer: Tracer, name: str, fn):
    """Wrap a function, or each resumption of a generator, in a span.

    The wrapper of a function opens its span inline rather than through
    `Tracer.span`, which would add a generator to every wrapped call.
    """
    if inspect.isgeneratorfunction(fn):
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    tracer.begin(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.end()
                    yield item
            finally:
                it.close()
        return gen_wrapper

    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()
    return wrapper


def registering(cls, registry: list):
    """A subclass of a search class that records every instance."""
    class Registered(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            registry.append(self)
    Registered.__name__ = cls.__name__
    return Registered


class Probe:
    """Patch the program's module boundaries for one pass of attempts."""

    def __init__(self, traced: bool):
        import hatprove.connection as connection
        import hatprove.lht as lht
        import hatprove.lj as lj
        import hatprove.runner as runner

        self.traced = traced
        self.tracer = Tracer() if traced else None
        self.result = None                      # last ProverResult
        self.searches = defaultdict(list)       # module name -> instances
        self.embeds = []                        # (input, output) pairs
        self.matrices = []
        self._saved = []

        for name in ENGINES:
            self._patch(runner, name, self._capture(getattr(runner, name)))
        if not traced:
            return
        t = self.tracer
        for name in ENGINES + ("parse_problem", "assemble_goal", "add_equality_axioms"):
            self._patch(runner, name, timed(t, name, getattr(runner, name)))
        self._patch(runner, "embed", timed(t, "embed", self._keep_embed(runner.embed)))
        self._patch(connection, "build_matrix",
                    timed(t, "build_matrix", self._keep_matrix(connection.build_matrix)))
        for name in ("copy_clause",) + PREFIX_NAMES:
            self._patch(connection, name, timed(t, name, getattr(connection, name)))
        for module, cls in ((lht, "LhtSearch"), (lj, "LJSearch"), (connection, "ConnSearch")):
            self._patch(module, cls, registering(getattr(module, cls), self.searches[cls]))

    def _patch(self, module, name, value) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def close(self) -> None:
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _capture(self, engine):
        def capture(*args, **kwargs):
            self.result = engine(*args, **kwargs)
            return self.result
        return capture

    def _keep_embed(self, embed):
        def keep(f):
            out = embed(f)
            self.embeds.append((f, out))
            return out
        return keep

    def _keep_matrix(self, build):
        def keep(f):
            m = build(f)
            self.matrices.append(m)
            return m
        return keep

    def start_attempt(self, attempt_id) -> None:
        self.result = None
        self.embeds.clear()
        self.matrices.clear()
        for instances in self.searches.values():
            instances.clear()
        if self.traced:
            self.tracer.start_attempt(attempt_id)

    def counts(self, decided: bool) -> Counter:
        """Counters of the attempt just run, read off the clock.

        The sizes of its matrices and embedded goals are measured only
        when the attempt reached a verdict: measuring walks them
        recursively, which is what failed on an input too deep to run.
        """
        from hatprove.embedding import ht_axioms
        from hatprove.matrix import iter_literals
        from hatprove.terms import formula_size

        c = Counter()
        calls = self.tracer.calls
        for name, key in (("LhtSearch", "lht"), ("LJSearch", "lj")):
            for s in self.searches[name]:
                c[f"{key}.nodes"] += s.nodes
                c[f"{key}.rounds"] += 1
            if name == "LhtSearch":
                c["lht.blocked_rounds"] += sum(s.blocked for s in self.searches[name])
        for s in self.searches["ConnSearch"]:
            c["connection.steps"] += s.steps
            c["connection.rounds"] += 1
            c["connection.sat_misses"] += len(s.sat_cache)
        c["connection.sat_checks"] = calls["constraints_signature"]
        c["prefixes.calls"] = sum(calls[n] for n in PREFIX_NAMES)
        c["matrix.builds"] = calls["build_matrix"]
        c["matrix.copies"] = calls["copy_clause"]
        if not decided:
            return c
        c["matrix.literals"] = sum(sum(1 for _ in iter_literals(m)) for m in self.matrices)
        for f, out in self.embeds:
            c["embedding.axioms"] += len(ht_axioms(f))
            c["embedding.goal_size"] += formula_size(out)
        return c
