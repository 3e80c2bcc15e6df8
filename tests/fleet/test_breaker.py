"""Circuit-breaker state machine with an injected clock."""

import pytest

from repro.fleet.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_breaker(open_for=0.5):
    clock = FakeClock()
    return CircuitBreaker(open_for=open_for, clock=clock), clock


class TestValidation:
    def test_open_for_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker(open_for=0.0)


class TestTransitions:
    def test_starts_closed_and_admits(self):
        breaker, _clock = make_breaker()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_opens_on_the_first_failure(self):
        breaker, _clock = make_breaker()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.opened_total == 1

    def test_failure_while_open_restarts_the_window(self):
        breaker, clock = make_breaker(open_for=0.5)
        breaker.record_failure()
        clock.advance(0.4)
        breaker.record_failure()  # a straggler's failure lands mid-window
        clock.advance(0.4)
        assert breaker.state == OPEN  # 0.4 s into the fresh window
        assert breaker.opened_total == 1

    def test_success_closes_and_the_next_failure_reopens(self):
        breaker, _clock = make_breaker()
        breaker.record_failure()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opened_total == 2  # two closed -> open edges

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = make_breaker(open_for=0.5)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(0.6)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # everyone else keeps waiting
        assert breaker.state == HALF_OPEN

    def test_successful_probe_closes(self):
        breaker, clock = make_breaker(open_for=0.5)
        breaker.record_failure()
        clock.advance(0.6)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens_a_fresh_window(self):
        breaker, clock = make_breaker(open_for=0.5)
        breaker.record_failure()
        clock.advance(0.6)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN  # a fresh window, not half-open
        assert not breaker.allow()
        assert breaker.opened_total == 1  # re-opens are not new closed->open edges
        clock.advance(0.6)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()
