"""Non-clausal connection search over prefixed matrices.

Connection-driven goal-directed search: pick a start clause, then close
every literal of the active clause by connecting it either to a literal
on the active path (reduction) or to a complementary literal inside a
copied extension clause, whose remaining obligations (the beta-clause)
are solved on the extended path.  Nested matrices are opened by
decomposition, choosing one of their clauses.

The search runs in two phases.  Structurally it is a classical
first-order connection search: connections need unifiable term
arguments, while the literals' prefixes are only collected as
constraints.  Once every branch is closed, the collected prefix pairs
must unify as strings; if they do not, the search backtracks into other
structural proofs.

An extension clause must contain a literal of the active path, or be
alpha-related to all path literals with its parent clause (if any)
containing one.  Copies are bounded per original clause by a
multiplicity limit under iterative deepening.  Optional pruning:
regularity (no literal may repeat on a path) and restricted
backtracking (the first connection that closes a literal is committed),
the latter incomplete and therefore only one pass of the strategy
schedule; exhausting the complete pass without ever hitting the copy
limit refutes.  The deepening loop is `verdicts.deepen`, shared with the
sequent provers, and the matrix is built once per call.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .matrix import (
    PVar,
    MatClause,
    MatLit,
    MatMatrix,
    beta_clause,
    build_matrix,
    copy_clause,
    iter_clauses,
    iter_literals,
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
from .verdicts import ProverResult, SearchTimeout, Verdict, deepen



def _pvar_ids(prefix) -> frozenset:
    out = set()
    for s in prefix:
        if isinstance(s, PVar):
            out.add(s.id)
        else:
            for a in s.args:
                if isinstance(a, PVar):
                    out.add(a.id)
    return frozenset(out)


@dataclass
class Connection:
    pred: str
    args0: tuple
    args1: tuple
    prefix0: tuple
    prefix1: tuple


@dataclass
class ConnProof:
    start_label: int
    connections: list = field(default_factory=list)
    copies_used: int = 0


class ConnSearch:
    def __init__(
        self,
        matrix: MatMatrix,
        copy_limit: int,
        deadline: Optional[float] = None,
        regularity: bool = True,
        restricted_bt: bool = False,
    ):
        self.m = matrix
        self.copy_limit = copy_limit
        self.deadline = deadline
        self.regularity = regularity
        self.restricted_bt = restricted_bt
        self.tb = Bindings()
        self.pb = Bindings()  # prefix variables
        self.constraints: list = []
        self.connections: list = []
        self.copies: Counter = Counter()
        self.sat_cache: dict = {}
        self.copy_counter = itertools.count(1)
        self.blocked = False
        self.steps = 0

    # -- relations ---------------------------------------------------------

    def _chain(self, node) -> list:
        out = []
        cur = node.clause if isinstance(node, MatLit) else node
        while cur is not None:
            out.append(cur)
            cur = cur.parent
        return out

    def _alpha_related(self, lit: MatLit, clause: MatClause) -> bool:
        lit_chain = self._chain(lit)
        clause_ids = {id(n) for n in self._chain(clause)}
        common = next((n for n in lit_chain if id(n) in clause_ids), None)
        return isinstance(common, MatMatrix)

    def _contains_lit_of(self, clause: MatClause, lits) -> bool:
        for l in lits:
            if any(n is clause for n in self._chain(l)):
                return True
        return False

    def _is_extension_clause(self, clause: MatClause, lits) -> bool:
        if self._contains_lit_of(clause, lits):
            return True
        if not all(self._alpha_related(l, clause) for l in lits):
            return False
        parent = clause.parent.parent if clause.parent is not None else None
        if parent is not None and not self._contains_lit_of(parent, lits):
            return False
        return True

    # -- complementarity -----------------------------------------------------

    def _sigma_equal(self, a: MatLit, b: MatLit) -> bool:
        if a.pred != b.pred or a.pol != b.pol or len(a.args) != len(b.args):
            return False
        for x, y in zip(a.args, b.args):
            if self.tb.resolve_term(x) != self.tb.resolve_term(y):
                return False
        return expand(a.prefix, self.pb) == expand(b.prefix, self.pb)

    def _connect(self, lit: MatLit, partner: MatLit) -> bool:
        """Term-unify a complementary pair; records the prefix pair.

        Constraints only accumulate along a branch, so any unsatisfiable
        subset dooms the branch.  As a cheap necessary condition the
        prefix-variable-sharing component of the new pair is checked
        here; the authoritative full unification still runs when all
        branches are closed.
        """
        mark = self.tb.mark()
        for x, y in zip(lit.args, partner.args):
            if not unify_occurs(x, y, self.tb):
                self.tb.undo_to(mark)
                return False
        self.constraints.append((lit.prefix, partner.prefix, _pvar_ids(lit.prefix) | _pvar_ids(partner.prefix)))
        if not self._component_satisfiable():
            self.constraints.pop()
            self.tb.undo_to(mark)
            return False
        self.connections.append((lit, partner))
        return True

    def _component_satisfiable(self) -> bool:
        """Satisfiability of the constraints transitively sharing prefix
        variables with the newest pair; work-budgeted, cached by a
        renaming-invariant signature, and inconclusive checks count as
        satisfiable, so the pruning stays sound."""
        comp = set(self.constraints[-1][2])
        member = [False] * len(self.constraints)
        member[-1] = True
        changed = True
        while changed:
            changed = False
            for i, (_, _, pv) in enumerate(self.constraints):
                if not member[i] and pv & comp:
                    member[i] = True
                    comp |= pv
                    changed = True
        pairs = [
            (p1, p2) for (p1, p2, _), m in zip(self.constraints, member) if m
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

    def _disconnect(self, mark: int) -> None:
        self.constraints.pop()
        self.connections.pop()
        self.tb.undo_to(mark)

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
            for _ in self._activate(start, ()):
                pairs = [(p1, p2) for p1, p2, _ in self.constraints]
                for _ in prefix_unify(pairs, self.pb, self.tb):
                    yield self._snapshot(start.label)

    def _activate(self, clause: MatClause, path: tuple) -> Iterator[None]:
        """Copy a clause into place and solve all its obligations."""
        if self.copies[clause.label] >= self.copy_limit:
            self.blocked = True
            return
        self.copies[clause.label] += 1
        cp, litmap = copy_clause(clause, self.copy_counter)
        slots = clause.parent.clauses
        ix = next(i for i, c in enumerate(slots) if c is clause)
        slots[ix] = cp
        try:
            yield from self._solve_all(list(cp.elements), path)
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
        if self.regularity and any(self._sigma_equal(lit, p) for p in path):
            return

        solved = False

        # reduction against the path
        for plit in path:
            if plit.pred == lit.pred and plit.pol != lit.pol:
                mark = self.tb.mark()
                if self._connect(lit, plit):
                    try:
                        yield True
                        solved = True
                    finally:
                        self._disconnect(mark)
                    if solved and self.restricted_bt:
                        return

        # extension into a copied clause
        new_path = path + (lit,)
        for c1 in list(iter_clauses(self.m)):
            partners = [
                l
                for l in iter_literals(c1)
                if l.pred == lit.pred and l.pol != lit.pol
            ]
            if not partners:
                continue
            if not self._is_extension_clause(c1, new_path):
                continue
            if self.copies[c1.label] >= self.copy_limit:
                self.blocked = True
                continue
            self.copies[c1.label] += 1
            cp, litmap = copy_clause(c1, self.copy_counter)
            slots = c1.parent.clauses
            ix = next(i for i, c in enumerate(slots) if c is c1)
            slots[ix] = cp
            try:
                for l2 in partners:
                    l2c = litmap[id(l2)]
                    mark = self.tb.mark()
                    if self._connect(lit, l2c):
                        try:
                            rest = beta_clause(cp, l2c)
                            for _ in self._solve_all(rest, new_path):
                                yield True
                                solved = True
                        finally:
                            self._disconnect(mark)
                        if solved and self.restricted_bt:
                            return
            finally:
                slots[ix] = c1
                self.copies[c1.label] -= 1

    def _snapshot(self, start_label: int) -> ConnProof:
        conns = [
            Connection(
                a.pred,
                tuple(self.tb.resolve_term(t) for t in a.args),
                tuple(self.tb.resolve_term(t) for t in b.args),
                resolved_string(a.prefix, self.pb, self.tb),
                resolved_string(b.prefix, self.pb, self.tb),
            )
            for a, b in self.connections
        ]
        return ConnProof(start_label, conns, sum(self.copies.values()))


# ============================================================
# Driver
# ============================================================


def prove_conn(
    f: Formula,
    timeout: Optional[float] = None,
    regularity: bool = True,
    restricted_bt: Optional[bool] = None,
) -> ProverResult:
    """Connection proof search with multiplicity deepening.

    Default schedule runs restricted backtracking first (fast, not
    complete) for at most three rounds and a quarter of the time, then
    the complete configuration.  Refuted is only reported when a
    complete round exhausted its search space without ever hitting the
    copy limit; the same under restricted backtracking is inconclusive.
    Passing restricted_bt pins a single configuration instead of the
    schedule, and a pinned restricted pass that exhausts gives up.
    The matrix is built once: every round restores the clause slots it
    fills with copies.
    """
    start = time.monotonic()
    deadline = start + timeout if timeout is not None else None
    passes = [True, False] if restricted_bt is None else [restricted_bt]
    matrix = build_matrix(f)
    rounds = 0
    for rb in passes:
        pass_deadline = deadline
        if rb and timeout is not None and len(passes) > 1:
            pass_deadline = start + 0.25 * timeout

        def run_round(limit):
            search = ConnSearch(matrix, limit, pass_deadline, regularity, rb)
            return search, next(search.run(), None)

        result = deepen(
            run_round,
            pass_deadline,
            lambda proof: len(proof.connections),
            cap=3 if rb else None,  # restricted backtracking rarely profits from depth
        )
        rounds += result.rounds
        result.rounds = rounds
        if result.verdict is Verdict.REFUTED and rb:
            # exhausted under restricted backtracking: inconclusive
            if len(passes) == 1:
                return ProverResult(Verdict.GAVE_UP, rounds=rounds)
        elif result.verdict is not Verdict.TIMEOUT:
            return result
    return ProverResult(Verdict.TIMEOUT, rounds=rounds)
