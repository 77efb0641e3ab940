import time

from hatprove.verdicts import SearchTimeout, Verdict, deepen


class Round:
    """A scripted search: proved at one limit, blocked below another."""

    def __init__(self, proved_at=None, blocked_below=99, sleep=0.0):
        self.proved_at = proved_at
        self.blocked_below = blocked_below
        self.sleep = sleep
        self.limits = []

    def __call__(self, limit):
        self.limits.append(limit)
        time.sleep(self.sleep)
        self.blocked = limit < self.blocked_below
        return self, ("proof", limit) if limit == self.proved_at else None


def test_proof_at_the_first_limit_that_has_one():
    r = deepen(Round(proved_at=3), None, rule_apps=lambda proof: 7)
    assert (r.verdict, r.proof, r.rounds, r.rule_apps) == (Verdict.PROVED, ("proof", 3), 3, 7)


def test_unblocked_round_refutes():
    run = Round(blocked_below=2)
    r = deepen(run, None)
    assert (r.verdict, r.rounds, run.limits) == (Verdict.REFUTED, 2, [1, 2])


def test_cap_stops_blocked_rounds():
    r = deepen(Round(), None, cap=3)
    assert (r.verdict, r.rounds) == (Verdict.TIMEOUT, 3)


def test_settle_refutes_a_blocked_round_with_its_model():
    run = Round()
    r = deepen(run, None, settle=lambda limit: "model" if limit == 2 else None)
    assert (r.verdict, r.rounds, r.countermodel) == (Verdict.REFUTED, 2, "model")


def test_timeout_inside_settle_is_a_timeout():
    def settle(limit):
        raise SearchTimeout

    r = deepen(Round(), None, settle=settle)
    assert (r.verdict, r.rounds) == (Verdict.TIMEOUT, 1)


def test_rounds_count_only_started_rounds():
    # the deadline passes during round 1, so round 2 never starts
    run = Round(sleep=0.05)
    r = deepen(run, time.monotonic() + 0.01)
    assert (r.verdict, r.rounds, run.limits) == (Verdict.TIMEOUT, 1, [1])
