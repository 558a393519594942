import pytest

from openloop import (Staircase, Stream, closed_loop, meets_limit,
                      open_loop)


class FakeClock:
    """Moves only when asked, plus 0.1 us per reading so a spin
    loop waiting for a due time ends."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1e-7
        return self.now


def service(clock, stall_at=None, stall_s=0.0, cost_s=10e-6):
    def step(j):
        clock.now += cost_s
        if j == stall_at:
            clock.now += stall_s
        return True
    return step


def test_a_stall_is_charged_to_the_checks_it_delays():
    clock = FakeClock()
    stream = Stream(service(clock, stall_at=5, stall_s=0.020), 1000)
    result = open_loop(stream, 100, rate=1000.0, clock=clock)
    lat = result.latency_s
    assert lat[4] == pytest.approx(10e-6, abs=1e-6)
    assert lat[5] == pytest.approx(0.020 + 10e-6, abs=1e-6)
    # check 6 was due 1 ms after check 5 but could only start when the
    # stall ended: from its due time it waited ~19 ms
    assert lat[6] == pytest.approx(0.019 + 20e-6, abs=1e-6)
    delayed = [k for k in range(6, 100) if lat[k] > 1e-3]
    assert delayed == list(range(6, 25))
    assert lat[30] == pytest.approx(10e-6, abs=1e-6)
    # the generator itself was never late: the service held it up
    assert max(result.late_s) < 1e-6
    assert not meets_limit(result)


def test_no_stall_meets_the_limit():
    clock = FakeClock()
    stream = Stream(service(clock), 1000)
    result = open_loop(stream, 200, rate=1000.0, clock=clock)
    assert max(result.latency_s) < 20e-6
    assert meets_limit(result)


def test_raised_or_wrong_checks_count_as_failed():
    def step(j):
        if j == 3:
            raise ValueError("bad input")
        return j != 7

    stream = Stream(step, 10)
    closed_loop(stream, 20)
    assert (stream.attempted, stream.failed) == (20, 4)


def test_staircase_settles_where_half_the_trials_meet_the_limit():
    # trials meet the limit below 10k/s and miss above it
    stairs = Staircase(2_000.0)
    for _ in range(60):
        stairs.record(stairs.rate < 10_000.0)
    assert 9_000.0 < stairs.estimate() < 11_000.0
    # coarse steps only until the first miss
    first_miss = next(i for i, (_, met) in enumerate(stairs.trials)
                      if not met)
    rates = [r for r, _ in stairs.trials]
    assert rates[1] / rates[0] == pytest.approx(1.25)
    assert rates[first_miss + 1] / rates[first_miss] == pytest.approx(1 / 1.04)
