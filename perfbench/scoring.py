"""Scoring attempts: outcome, charged time and the end-to-end metrics.

An attempt is solved when it returns a correct definite verdict within
its budget: Theorem on a valid input, or Non-Theorem on an invalid one
(the embedding backends never say Non-Theorem).  It fails on an Error,
a wrong verdict or a proof certificate that `check_proof` rejects.

Time is charged as a user waiting for the answer sees it: the attempt's
real elapsed time, timeouts included with their deadline overshoot,
except that a failed attempt is charged its full budget, so that
turning an Error into a Timeout is neutral.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional

DEFINITE = ("Theorem", "Non-Theorem")


@dataclass(frozen=True)
class Outcome:
    status: str
    seconds: float        # real elapsed time of the attempt
    charged: float        # time charged to the attempt
    solved: bool
    failed: bool          # Error, wrong verdict or rejected certificate
    expected: bool        # the failure is the one the status table records
    wrong: bool           # wrong verdict or rejected certificate


def score(attempt, status: str, seconds: float, cert_ok: Optional[bool]) -> Outcome:
    """Classify one attempt; `cert_ok` is None when there is no certificate."""
    wrong_verdict = (status == "Theorem" and not attempt.valid) or (
        status == "Non-Theorem" and attempt.valid
    )
    rejected = cert_ok is False
    failed = status == "Error" or wrong_verdict or rejected
    solved = status in DEFINITE and not failed
    expected = failed and not rejected and attempt.known == status
    return Outcome(
        status,
        seconds,
        attempt.budget if failed else seconds,
        solved,
        failed,
        expected,
        wrong_verdict or rejected,
    )


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, 0 < q < 1.

    A weighted mean of all order statistics, with Beta((n+1)q, (n+1)(1-q))
    weights.  Unlike a single order statistic it does not hang on the one
    or two attempts that happen to sit at the quantile's rank, so a noisy
    host moves it less.
    """
    xs = sorted(values)
    if not xs or not 0 < q < 1:
        raise ValueError(f"quantile {q} of {len(xs)} values")
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), a, b > 0."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300

    def nonzero(v):
        return v if abs(v) > tiny else tiny

    c = 1.0
    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / nonzero(1.0 + num * d)
            c = nonzero(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def rerun(outcome: Outcome) -> bool:
    """Whether another run of the attempt can change its charged time.

    A timeout is charged what its deadline allows and a failure its full
    budget; every other attempt is charged its own elapsed time.
    """
    return outcome.status != "Timeout" and not outcome.failed


def summarize(passes: list) -> dict:
    """End-to-end metrics of passes over the same attempts.

    The first pass runs every attempt and gives the counts.  A later
    pass holds None for each attempt it did not rerun.  An attempt's
    time is its median charged time over its runs.
    """
    first = passes[0]
    charged = [statistics.median(o.charged for o in same if o is not None)
               for same in zip(*passes)]
    return {
        "solved": sum(o.solved for o in first),
        "batch_s": sum(charged),
        "answer_p50_ms": 1000 * quantile(charged, 0.5),
        "answer_p90_ms": 1000 * quantile(charged, 0.9),
        "fail_frac": sum(o.failed for o in first) / len(first),
    }
