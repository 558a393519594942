"""Speed.measure charges off-CPU waits that repeat and keeps the least
disturbed attempt."""

import time

import pytest

from calib import ATTEMPTS, Speed


def test_cpu_bound_work_runs_once():
    speed = Speed()
    calls = []

    def work():
        calls.append(1)
        t = time.perf_counter()
        while time.perf_counter() - t < 0.02:
            pass
        return "done"

    out, raw, factor = speed.measure(work)
    assert out == "done"
    # a rerun only if the host stole over 2% of this attempt
    assert len(calls) == 1 + speed.reruns
    assert raw >= 0.02 and factor > 0


def test_a_blocking_wait_is_retried_then_charged():
    speed = Speed()
    calls = []

    def work():
        calls.append(1)
        time.sleep(0.02)
        return len(calls)

    out, raw, _ = speed.measure(work)
    assert len(calls) == ATTEMPTS and speed.reruns == ATTEMPTS - 1
    # the wait is in the time kept, not hidden by the CPU clock
    assert raw >= 0.02
    assert 1 <= out <= ATTEMPTS


def test_traced_speed_never_reruns():
    speed = Speed(attempts=1)
    calls = []
    speed.measure(lambda: calls.append(time.sleep(0.01)))
    assert len(calls) == 1 and speed.reruns == 0


def test_factor_is_the_mean_slowness_around_the_work():
    speed = Speed(attempts=1)
    before = speed.last
    _, _, factor = speed.measure(lambda: None)
    assert factor == pytest.approx(2.0 / (before + speed.last))
