"""Non-clausal connection search over prefixed matrices.

Connection-driven goal-directed search: pick a start clause, then close
every literal of the active clause by connecting it either to a literal
on the active path (reduction) or to a complementary literal inside a
copied extension clause, whose remaining obligations (the beta-clause)
are solved on the extended path.  Nested matrices are opened by
decomposition, choosing one of their clauses.

The search runs in two phases.  Structurally it is a classical
first-order connection search: connections need unifiable term
arguments, while their prefixes are only collected: one record per
connection holds its two literals and the prefix variables they carry.
Once every branch is closed, the prefix pairs must unify as strings; if
they do not, the search backtracks into other structural proofs.
Backtracking undoes every choice the way Prolog does for leanCoP: each
clause copy (`_copied`) and each connection (`_connected`) is one
generator that makes the change, yields while the search below it runs,
and undoes the change in its `finally`, so no caller restores state.

An extension clause must contain a literal of the active path, or be
alpha-related to all path literals with its parent clause (if any)
containing one; the smallest extension clauses are tried first.  One
limit, raised by iterative deepening, bounds both the copies of each
original clause and the length of the active path: a literal on a path
that long may still close by reduction, but not by extension.  Short
proofs are therefore found in the first rounds, whatever order the
clauses are in (as in leanCoP).  Regularity is part of the search, as
in leanCoP: no literal may repeat on a path.  The search is complete,
so exhausting a round without the limit ever cutting a copy or an
extension refutes.
The deepening loop is `verdicts.deepen`, shared with the sequent
provers, and the matrix is built once per call.

This module runs the search only.  Every question about the matrix's
structure goes to `matrix`: which clauses and literals there are
(`iter_clauses`, `iter_literals`), whether a clause holds a path literal
(`contains`), where a literal and a clause diverge (`meet`), the prefix
variables of a prefix pair (`leaves`), copies, which keep the clause's
order of literals, and beta-clauses.  The prefix pairs go to the
unifier in `prefixes`, whose first solution ends the search.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional

from .matrix import (
    PVar,
    MatClause,
    MatLit,
    MatMatrix,
    beta_clause,
    build_matrix,
    contains,
    copy_clause,
    iter_clauses,
    iter_literals,
    leaves,
    meet,
)
from .prefixes import (
    BudgetExceeded,
    _solve,
    constraints_signature,
    expand,
    prefix_unify,
    resolved_string,
)
from .terms import Bindings, Formula, unify_occurs
from .verdicts import ProverResult, SearchTimeout, deepen


@dataclass
class Connection:
    pred: str
    args0: tuple
    args1: tuple
    prefix0: tuple
    prefix1: tuple


@dataclass
class ConnProof:
    connections: list


class ConnSearch:
    """One round of connection search.  `copy_limit` bounds both the
    copies of each original clause and the length of the active path;
    `blocked` records whether either bound cut off a step."""

    def __init__(
        self,
        matrix: MatMatrix,
        copy_limit: int,
        deadline: Optional[float] = None,
        sat_cache: Optional[dict] = None,
    ):
        self.m = matrix
        self.copy_limit = copy_limit
        self.deadline = deadline
        self.tb = Bindings()
        self.pb = Bindings()  # prefix variables
        # (literal, partner, prefix variable ids of their prefixes)
        self.connections: list = []
        self.copies: Counter = Counter()
        self.sat_cache = {} if sat_cache is None else sat_cache
        self.blocked = False
        self.steps = 0
        # literal count of each clause, keyed by the label copies keep
        self.size = {
            c.label: sum(1 for _ in iter_literals(c)) for c in iter_clauses(matrix)
        }

    # -- relations ---------------------------------------------------------

    def _is_extension_clause(self, clause: MatClause, lits) -> bool:
        if any(contains(clause, l) for l in lits):
            return True
        if not all(isinstance(meet(l, clause), MatMatrix) for l in lits):
            return False
        parent = clause.parent.parent if clause.parent is not None else None
        return parent is None or any(contains(parent, l) for l in lits)

    # -- complementarity -----------------------------------------------------

    def _sigma_equal(self, a: MatLit, b: MatLit) -> bool:
        if a.pred != b.pred or a.pol != b.pol or len(a.args) != len(b.args):
            return False
        for x, y in zip(a.args, b.args):
            if self.tb.resolve_term(x) != self.tb.resolve_term(y):
                return False
        return expand(a.prefix, self.pb) == expand(b.prefix, self.pb)

    def _connected(self, lit: MatLit, partner: MatLit) -> Iterator[None]:
        """Term-unify a complementary pair and record the connection;
        yield once if the branch stays satisfiable, then undo both.

        Connections only accumulate along a branch, so any unsatisfiable
        subset of their prefix pairs dooms the branch.  As a cheap
        necessary condition the prefix-variable-sharing component of the
        new pair is checked here; the authoritative full unification
        still runs when all branches are closed.
        """
        mark = self.tb.mark()
        n = len(self.connections)
        try:
            if all(unify_occurs(x, y, self.tb) for x, y in zip(lit.args, partner.args)):
                pvars = {v.id for v in leaves(lit.prefix + partner.prefix) if isinstance(v, PVar)}
                self.connections.append((lit, partner, pvars))
                if self._component_satisfiable():
                    yield
        finally:
            del self.connections[n:]
            self.tb.undo_to(mark)

    def _component_satisfiable(self) -> bool:
        """Satisfiability of the prefix pairs of the connections that
        transitively share prefix variables with the newest one;
        work-budgeted, cached by a renaming-invariant signature, and
        inconclusive checks count as satisfiable, so the pruning stays
        sound."""
        comp = set(self.connections[-1][2])
        member = [False] * len(self.connections)
        member[-1] = True
        changed = True
        while changed:
            changed = False
            for i, (_, _, pv) in enumerate(self.connections):
                if not member[i] and pv & comp:
                    member[i] = True
                    comp |= pv
                    changed = True
        pairs = [
            (a.prefix, b.prefix) for (a, b, _), m in zip(self.connections, member) if m
        ]
        sig = constraints_signature(pairs, self.pb, self.tb)
        hit = self.sat_cache.get(sig)
        if hit is not None:
            return hit
        pmark = self.pb.mark()
        tmark = self.tb.mark()
        try:
            for _ in _solve(pairs, self.pb, self.tb, [600]):
                self.sat_cache[sig] = True
                return True
            self.sat_cache[sig] = False
            return False
        except BudgetExceeded:
            self.sat_cache[sig] = True
            return True
        finally:
            self.pb.undo_to(pmark)
            self.tb.undo_to(tmark)

    # -- search --------------------------------------------------------------

    def run(self) -> Iterator[ConnProof]:
        """Start with each positive top-level clause; yield per proof.

        A positive clause holds only polarity-0 literals; some positive
        clause can always begin a proof, so the restriction keeps the
        search goal-directed without losing completeness.  When the
        matrix has no positive clause every clause is tried.
        """
        starts = [
            c
            for c in self.m.clauses
            if all(l.pol == 0 for l in iter_literals(c))
        ] or list(self.m.clauses)
        for start in starts:
            for cp in self._copied(start):
                for _ in self._solve_all(list(cp.elements), ()):
                    pairs = [(a.prefix, b.prefix) for a, b, _ in self.connections]
                    for _ in prefix_unify(pairs, self.pb, self.tb, self.deadline):
                        yield self._snapshot()

    def _copied(self, clause: MatClause) -> Iterator[MatClause]:
        """Put a fresh copy of clause in its parent's slot and yield it,
        then put the clause back; at the copy limit, yield nothing."""
        if self.copies[clause.label] >= self.copy_limit:
            self.blocked = True
            return
        slots = clause.parent.clauses
        ix = next(i for i, c in enumerate(slots) if c is clause)
        self.copies[clause.label] += 1
        slots[ix] = cp = copy_clause(clause)
        try:
            yield cp
        finally:
            slots[ix] = clause
            self.copies[clause.label] -= 1

    def _solve_all(self, elements: list, path: tuple) -> Iterator[None]:
        if not elements:
            yield
            return
        first, rest = elements[0], elements[1:]
        for _ in self._solve_one(first, path):
            yield from self._solve_all(rest, path)

    def _solve_one(self, element, path: tuple) -> Iterator[None]:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchTimeout
        self.steps += 1

        if isinstance(element, MatMatrix):
            # decomposition: commit to one clause of the submatrix
            for clause in element.clauses:
                yield from self._solve_all(list(clause.elements), path)
            return

        lit = element
        # regularity: no literal repeats on the path
        if any(self._sigma_equal(lit, p) for p in path):
            return

        # reduction against the path
        for plit in path:
            if plit.pred == lit.pred and plit.pol != lit.pol:
                yield from self._connected(lit, plit)

        # extension into a copied clause, up to the path bound
        if len(path) >= self.copy_limit:
            self.blocked = True
            return
        new_path = path + (lit,)
        for c1 in sorted(iter_clauses(self.m), key=lambda c: self.size[c.label]):
            if not any(l.pred == lit.pred and l.pol != lit.pol for l in iter_literals(c1)):
                continue
            if not self._is_extension_clause(c1, new_path):
                continue
            for cp in self._copied(c1):
                # listed before connecting: copies nested below fill cp's slots
                partners = [l for l in iter_literals(cp) if l.pred == lit.pred and l.pol != lit.pol]
                for l2 in partners:
                    for _ in self._connected(lit, l2):
                        yield from self._solve_all(beta_clause(cp, l2), new_path)

    def _snapshot(self) -> ConnProof:
        conns = [
            Connection(
                a.pred,
                tuple(self.tb.resolve_term(t) for t in a.args),
                tuple(self.tb.resolve_term(t) for t in b.args),
                resolved_string(a.prefix, self.pb, self.tb),
                resolved_string(b.prefix, self.pb, self.tb),
            )
            for a, b, _ in self.connections
        ]
        return ConnProof(conns)


# ============================================================
# Driver
# ============================================================


def prove_conn(
    f: Formula,
    timeout: Optional[float] = None,
) -> ProverResult:
    """Connection proof search with iterative deepening.

    Round n allows n copies of each clause and active paths of length n.
    Refuted is reported when a round exhausted its search space without
    ever hitting the copy or path bound.  The matrix is built once:
    every round restores the clause slots it fills with copies.  One
    `sat_cache` serves every round.
    """
    deadline = time.monotonic() + timeout if timeout is not None else None
    matrix = build_matrix(f)
    sat_cache: dict = {}  # a signature's satisfiability holds in every round

    def run_round(limit):
        search = ConnSearch(matrix, limit, deadline, sat_cache)
        return search, next(search.run(), None)

    return deepen(run_round, deadline, lambda proof: len(proof.connections))
