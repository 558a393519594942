"""One-thread load generation: an open loop at a fixed rate, a closed
loop, and the capacity staircase built on the open loop.

Open loop: request ``k`` is due at ``t0 + k / rate`` whatever happened to
the requests before it, and its latency runs from that due time to the
return of the call, so a stall is charged to every request it delays.
The generator's own lateness is measured apart: the time from when a
request could have been sent (its due time, or the previous return if
that came later) to when it was.

Capacity is the offered rate at which a short open loop keeps its p99
from due time within :data:`LATENCY_LIMIT_S`, with no backlog left
growing, in half of its trials.
"""

from __future__ import annotations

import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from typing import Callable

from bstats import median, percentile

#: latency limit on the p99 that defines capacity
LATENCY_LIMIT_S = 1e-3
#: requests a capacity trial offers at least
MIN_TRIAL = 2_000
#: staircase steps: until the first missed trial, and after it
COARSE_STEP = 1.25
FINE_STEP = 1.04

Step = Callable[[int], bool]


class Stream:
    """A cursor over ``length`` request positions, wrapping at the end."""

    def __init__(self, step: Step, length: int) -> None:
        self.step = step
        self.length = length
        self.pos = 0
        self.attempted = 0
        self.failed = 0
        #: failed requests that raised (the first one's traceback is shown)
        self.raised = 0

    def take(self, n: int) -> int:
        start = self.pos
        self.pos = (start + n) % self.length
        self.attempted += n
        return start


@dataclass
class OpenLoopResult:
    #: per request, seconds (doubles, in offer order)
    latency_s: array
    late_s: array = field(repr=False)
    failed: int

    def p(self, pct: float) -> float:
        return percentile(sorted(self.latency_s), pct)


def _serve(stream: Stream, j: int) -> bool:
    try:
        return stream.step(j)
    except Exception:  # a raised check is a failed check, not a crash
        stream.raised += 1
        if stream.raised == 1:
            traceback.print_exc(file=sys.stderr)
        return False


def open_loop(stream: Stream, n: int, rate: float,
              clock: Callable[[], float] = time.perf_counter
              ) -> OpenLoopResult:
    """Offer ``n`` requests at ``rate`` per second, spinning until each
    is due."""
    start = stream.take(n)
    length = stream.length
    interval = 1.0 / rate
    latency = array("d", bytes(8 * n))
    late = array("d", bytes(8 * n))
    failed = 0
    t0 = clock() + 1e-3
    done = t0
    for k in range(n):
        due = t0 + k * interval
        now = clock()
        while now < due:
            now = clock()
        late[k] = now - (due if due > done else done)
        if not _serve(stream, (start + k) % length):
            failed += 1
        done = clock()
        latency[k] = done - due
    stream.failed += failed
    return OpenLoopResult(latency_s=latency, late_s=late, failed=failed)


def closed_loop(stream: Stream, n: int) -> None:
    """Serve ``n`` requests back to back."""
    start = stream.take(n)
    length = stream.length
    failed = 0
    for k in range(n):
        if not _serve(stream, (start + k) % length):
            failed += 1
    stream.failed += failed


def meets_limit(result: OpenLoopResult,
                limit_s: float = LATENCY_LIMIT_S) -> bool:
    """p99 from due time within the limit, and no backlog left growing at
    the end (the median of the last 1% also within it)."""
    if result.failed:
        return False
    tail = result.latency_s[-max(10, len(result.latency_s) // 100):]
    return result.p(99.0) <= limit_s and median(tail) <= limit_s


class Staircase:
    """Up-down staircase for the offered rate that meets
    :func:`meets_limit` in half of its trials.

    Whether a short trial near capacity meets the limit is a coin toss
    decided by scheduler and GC pauses, so a bisection lands wherever its
    first unlucky trial sent it.  The staircase instead raises the rate
    after a met trial and lowers it after a missed one (by
    :data:`COARSE_STEP` until the first miss, then by :data:`FINE_STEP`),
    and estimates capacity as the median of the rates it offered from its
    first miss on.
    """

    def __init__(self, start: float) -> None:
        self.rate = start
        #: (offered rate, met?) per trial
        self.trials: list[tuple[float, bool]] = []

    def record(self, met: bool) -> None:
        self.trials.append((self.rate, met))
        missed = any(not m for _, m in self.trials)
        step = FINE_STEP if missed else COARSE_STEP
        self.rate = self.rate * step if met else self.rate / step

    def estimate(self) -> float:
        first_miss = next((i for i, (_, m) in enumerate(self.trials)
                           if not m), len(self.trials) - 1)
        return median([r for r, _ in self.trials[first_miss:]])
