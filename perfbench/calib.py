"""Machine-speed calibration for timings taken on a shared machine.

On a shared virtual machine two things disturb timings:

* the host takes the CPU away for a while (steal).  Timed work is
  wall-clock, so time the program spends blocked or waiting on another
  thread or process counts; :meth:`Speed.measure` also reads this
  thread's CPU time, which the kernel keeps free of stolen time, and
  runs the work again, up to :data:`ATTEMPTS` times, while the wall-clock
  exceeds it by more than :data:`MAX_LOST_SHARE`.  The least disturbed
  attempt is kept, so a stolen stretch is not charged to the program,
  while an off-thread wait that repeats is (the whole process's CPU
  time would not do: a library thread spinning in the background, as
  numpy's BLAS threads can, would hide the steal);
* the CPU runs slower or faster: the same pure-Python work takes from
  1x to 2x its best time from one second to the next.  Every timed piece
  of work is bracketed by a calibration sample (:func:`calibration_s`)
  and scaled by the slowness the samples show::

    reference time = measured time / mean(slowness before, after)

  so the benchmark reports times as they would read on a machine where
  the calibration work takes :data:`CAL_REF_S`.  The reports print raw
  times beside the calibrated ones.
"""

from __future__ import annotations

import gc
import json
import re
import time
from typing import Callable, TypeVar

T = TypeVar("T")

#: the calibration work's time at reference speed: about its median on
#: the 2-CPU x86-64 machine the benchmark was defined on
CAL_REF_S = 0.005
_ROUNDS = 120
#: an attempt whose wall-clock exceeds this thread's CPU time by more
#: than this share lost time to the host (or waited off the thread) and
#: is run again, up to ATTEMPTS runs in all
MAX_LOST_SHARE = 0.02
ATTEMPTS = 3

_DOC = {"a": [1, 2, 3, {"b": "xyz", "c": 1.5}], "d": "hello world",
        "e": list(range(20))}
_ADDR = re.compile(r"(\d+)\.(\d+)\.(\d+)\.(\d+)")
_PAIRS = [(i * 7919 % 101, i) for i in range(64)]


class _Item:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int) -> None:
        self.a, self.b, self.c = a, b, c

    def key(self) -> tuple[int, int]:
        return self.a, self.b


def calibration_s() -> float:
    """CPU seconds the fixed calibration work takes right now.

    The work is varied interpreter code (JSON, a regular expression,
    sorting, slotted objects and a dict comprehension, formatting, set
    algebra) rather than one tight loop: on the shared machine the
    service checks slowed by more than a tight dict loop did, and varied
    code tracked them more closely.  It reads no data of the program or
    of the benchmark's inputs, and the garbage collector is held off
    while it runs, so neither the program's caches nor its heap size
    change its speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        for i in range(_ROUNDS):
            json.loads(json.dumps(_DOC))
            int(_ADDR.match("10.%d.3.4" % i).group(2))
            sorted(_PAIRS, key=lambda pair: pair[0])
            items = {it.key(): it for it in (_Item(j, i, j ^ i)
                                             for j in range(16))}
            "{}:{}-{:.3f}".format(i, len(items), i / 7)
            frozenset(range(i % 32)) & frozenset(range(8, 40))
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Calibration samples taken between pieces of timed work.

    A sample is a slowness: the calibration work's time over
    :data:`CAL_REF_S` (1.0 at reference speed).
    """

    def __init__(self, attempts: int = ATTEMPTS) -> None:
        #: :meth:`measure` runs work at most this many times (1 in traced
        #: runs, whose spans would count every attempt)
        self.attempts = attempts
        self.last = self.sample()
        #: attempts :meth:`measure` ran again
        self.reruns = 0

    @staticmethod
    def sample() -> float:
        return calibration_s() / CAL_REF_S

    def tick(self) -> float:
        """Take a new sample; returns the factor that scales the work done
        since the previous one to reference speed."""
        before, self.last = self.last, self.sample()
        return 2.0 / (before + self.last)

    def measure(self, work: Callable[[], T]) -> tuple[T, float, float]:
        """Run ``work()`` and time it in wall-clock, then :meth:`tick`.

        An attempt that lost more than :data:`MAX_LOST_SHARE` of its
        wall-clock is run again, at most :attr:`attempts` times in all.
        Returns ``(result, measured seconds, factor)`` of the attempt that
        lost least; ``measured * factor`` is its time at reference speed.
        """
        best = None
        for attempt in range(self.attempts):
            if attempt:
                self.reruns += 1
            wall, cpu = time.perf_counter(), time.thread_time()
            out = work()
            wall, cpu = time.perf_counter() - wall, time.thread_time() - cpu
            factor = self.tick()
            lost = (wall - cpu) / wall if wall > 0 else 0.0
            if best is None or lost < best[0]:
                best = (lost, out, wall, factor)
            if lost <= MAX_LOST_SHARE:
                break
        return best[1], best[2], best[3]
