"""Uniform engine results and the deepening driver they share."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, Optional


class Verdict(enum.Enum):
    PROVED = "Proved"
    REFUTED = "Refuted"
    TIMEOUT = "Timeout"


class SearchTimeout(Exception):
    """Raised inside a search when its deadline passes."""


@dataclass
class ProverResult:
    verdict: Verdict
    proof: Optional[object] = None
    rounds: int = 0           # iterative-deepening rounds started
    rule_apps: int = 0        # rule applications in the returned proof
    countermodel: Optional[object] = None  # re-checked model behind a refutation

    @property
    def proved(self) -> bool:
        return self.verdict is Verdict.PROVED


def deepen(
    run_round: Callable,
    deadline: Optional[float],
    rule_apps: Callable = lambda proof: 0,
    settle: Optional[Callable] = None,
) -> ProverResult:
    """Iterative deepening of a search limit, starting at 1.

    `run_round(limit)` runs one bounded search and returns the search
    and its first proof, or None when the round fails.  A failed round
    whose `blocked` flag is false never had a rule or a copy cut off by
    the limit, so it is the search every higher limit would do, and the
    failure is a refutation.  A blocked round may be settled by
    `settle(limit)`, which returns a checked countermodel or None.
    Rounds stop at the deadline, and a `SearchTimeout` from a round or
    from `settle` lands there too; either gives Timeout.
    """
    rounds = 0
    try:
        while deadline is None or time.monotonic() <= deadline:
            rounds += 1
            search, proof = run_round(rounds)
            if proof is not None:
                return ProverResult(Verdict.PROVED, proof, rounds, rule_apps(proof))
            if not search.blocked:
                return ProverResult(Verdict.REFUTED, rounds=rounds)
            model = settle(rounds) if settle is not None else None
            if model is not None:
                return ProverResult(Verdict.REFUTED, rounds=rounds, countermodel=model)
    except SearchTimeout:
        pass
    return ProverResult(Verdict.TIMEOUT, rounds=rounds)
