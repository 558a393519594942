"""Deterministic discrete-event simulation engine.

A minimal but complete event loop: a binary heap of ``(time, seq, fn,
args)`` tuples where ``seq`` is a monotone tiebreaker, so runs are
bit-for-bit reproducible regardless of callback identity.  All network
elements (links, hosts, attack processes, trigger components) schedule
callbacks here.

Hot-path notes: heap entries are plain tuples so every sift comparison runs
in C and ``seq`` is unique, so comparison never reaches ``fn``.
:meth:`Simulator.schedule` and friends return an :class:`Event` cancel
handle; the per-packet callers use :meth:`Simulator.post`, which allocates
no handle at all.  Cancellation records the entry's ``seq`` in a tombstone
set that the run loop skips and periodic heap compaction sweeps out.
Compaction filters the backing list and re-heapifies; because ``(time,
seq)`` is a total order, the pop sequence — and therefore simulation
output — is unchanged bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.obs.metrics import declare

__all__ = ["Event", "SimClock", "Simulator"]

#: Compact the heap once at least this many tombstones have accumulated
#: *and* they outnumber the live events.
_COMPACT_MIN_CANCELLED = 64

_EVENTS = declare("sim.events_processed", "counter",
                  help="events popped and executed by the event loop")
_CANCELLED = declare("sim.events_cancelled", "counter",
                     help="events cancelled before firing")
_COMPACTIONS = declare("sim.heap_compactions", "counter",
                       help="tombstone-compaction sweeps of the event heap")
_BATCH_EVENTS = declare("sim.batch_events", "counter",
                        help="packet-batch event slots scheduled")
_BATCH_PACKETS = declare("sim.batch_packets", "counter",
                         help="packets carried inside batch event slots")


class SimClock:
    """A :class:`repro.service.clock.Clock` view of a simulator's time —
    the simulated side of the service layer's clock seam."""

    __slots__ = ("_sim",)

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim

    def now(self) -> float:
        return self._sim._now


class Event:
    """Cancel handle for a scheduled callback.

    The heap itself holds plain ``(time, seq, fn, args)`` tuples; a handle
    only remembers which entry it names.  Cancelling an entry that already
    fired, or one scheduled before the simulator's last :meth:`Simulator.reset`,
    is a no-op.
    """

    __slots__ = ("time", "seq", "cancelled", "_sim", "_epoch")

    def __init__(self, time: float, seq: int, sim: "Simulator") -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self._sim = sim
        self._epoch = sim._epoch

    def cancel(self) -> None:
        """Prevent the event from firing (O(1); its entry stays in the heap
        until the next compaction sweep or its pop time)."""
        if not self.cancelled:
            self.cancelled = True
            self._sim._cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.6f}, seq={self.seq}{state})"


class Simulator:
    """Discrete-event simulator with deterministic ordering.

    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(1.0, out.append, "a")
    >>> _ = sim.schedule(0.5, out.append, "b")
    >>> sim.run()
    >>> out
    ['b', 'a']
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[..., Any], tuple]] = []
        self._seq = itertools.count()
        self._now = 0.0
        # registry-backed counters (unlabelled: the most recently built
        # simulator owns the family's live series — one world per run)
        self._m_processed = _EVENTS.labelled()
        self._m_cancelled = _CANCELLED.labelled()
        self._m_compactions = _COMPACTIONS.labelled()
        # batch-slot counters are created lazily on the first
        # schedule_batch(), so scalar-only runs keep byte-identical
        # registry snapshots (no extra zero-valued series)
        self._m_batch_events = None
        self._m_batch_packets = None
        #: seqs of cancelled entries still in the heap (tombstones)
        self._cancelled: set[int] = set()
        #: bumped by reset() so handles from an earlier run go inert
        self._epoch = 0
        self.running = False
        self._reset_hooks: list[Callable[[], None]] = []

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def clock(self) -> "SimClock":
        """This simulator as a :class:`repro.service.clock.Clock` — hand it
        to a :class:`~repro.service.facade.ServiceFacade` to drive the live
        decision path from simulated time."""
        return SimClock(self)

    @property
    def events_processed(self) -> int:
        return self._m_processed.value

    @property
    def events_cancelled(self) -> int:
        """Pending events cancelled before they fired."""
        return self._m_cancelled.value

    @property
    def pending(self) -> int:
        """Number of events still in the heap (including cancelled ones
        not yet swept by compaction)."""
        return len(self._heap)

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time:.6f} < now {self._now:.6f}")
        seq = next(self._seq)
        heapq.heappush(self._heap, (time, seq, fn, args))
        return Event(time, seq, self)

    def post(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at ``time`` with no cancel handle.

        The per-packet entry point (link delivery, traffic sources): it
        allocates nothing but the heap tuple and skips the past-time check,
        so the caller guarantees ``time >= now``.
        """
        heapq.heappush(self._heap, (time, next(self._seq), fn, args))

    @property
    def batch_events(self) -> int:
        """Batch event slots scheduled so far (0 if none ever were)."""
        return 0 if self._m_batch_events is None else self._m_batch_events.value

    @property
    def batch_packets(self) -> int:
        """Packets carried by batch event slots so far."""
        return 0 if self._m_batch_packets is None else self._m_batch_packets.value

    def schedule_batch(self, delay: float, fn: Callable[..., Any], batch: Any,
                       *args: Any) -> Event:
        """Schedule a packet-batch event slot: ``fn(batch, *args)`` fires as
        ONE heap event carrying the whole batch.

        This is the batching analogue of per-packet :meth:`schedule` — the
        heap cost is amortised over ``len(batch)`` packets.  Accounting
        (``sim.batch_events`` / ``sim.batch_packets``) is registered on
        first use only, so a scalar-only run's registry snapshot is
        unchanged by this method existing.
        """
        ev = self.schedule(delay, fn, batch, *args)
        if self._m_batch_events is None:
            self._m_batch_events = _BATCH_EVENTS.labelled()
            self._m_batch_packets = _BATCH_PACKETS.labelled()
        self._m_batch_events.value += 1
        self._m_batch_packets.value += len(batch)
        return ev

    def schedule_every(self, interval: float, fn: Callable[..., Any], *args: Any,
                       until: Optional[float] = None, start: Optional[float] = None) -> Event:
        """Schedule a periodic callback (first firing at ``start`` or now+interval).

        The callback may return False to stop the recurrence; cancelling
        the returned handle stops it too, whichever tick is pending.
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be > 0, got {interval}")
        first = self._now + interval if start is None else start

        def tick() -> None:
            if until is not None and self._now > until:
                return
            result = fn(*args)
            if result is False or handle.cancelled:
                return
            if until is None or self._now + interval <= until:
                nxt = self.schedule(interval, tick)
                handle.time, handle.seq = nxt.time, nxt.seq

        handle = self.schedule_at(first, tick)
        return handle

    def _cancel(self, ev: Event) -> None:
        heap = self._heap
        # pops leave in strictly increasing (time, seq) order and every
        # later push sorts after them, so an entry is still queued iff it
        # does not sort before the heap's minimum
        if (ev._epoch != self._epoch or not heap
                or (ev.time, ev.seq) < heap[0][:2]):
            return
        cancelled = self._cancelled
        cancelled.add(ev.seq)
        self._m_cancelled.value += 1
        if (len(cancelled) >= _COMPACT_MIN_CANCELLED
                and len(cancelled) * 2 >= len(heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled tombstones and re-heapify.

        ``(time, seq)`` totally orders entries, so rebuilding the heap
        cannot change the order live events pop in.
        """
        cancelled = self._cancelled
        # in-place so aliases held by a running `run()` loop stay valid
        self._heap[:] = [entry for entry in self._heap
                         if entry[1] not in cancelled]
        heapq.heapify(self._heap)
        cancelled.clear()
        self._m_compactions.value += 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events until the heap drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the number of events processed."""
        processed = self._m_processed
        processed_before = processed.value
        heap = self._heap
        cancelled = self._cancelled
        pop = heapq.heappop
        horizon = math.inf if until is None else until
        self.running = True
        try:
            while heap:
                if (max_events is not None
                        and processed.value - processed_before >= max_events):
                    break
                if heap[0][0] > horizon:
                    self._now = until
                    break
                time, seq, fn, args = pop(heap)
                if cancelled and seq in cancelled:
                    cancelled.remove(seq)
                    continue
                self._now = time
                fn(*args)
                processed.value += 1
            else:
                if until is not None:
                    self._now = max(self._now, until)
        finally:
            self.running = False
        return processed.value - processed_before

    def add_reset_hook(self, fn: Callable[[], None]) -> None:
        """Register a callback run (then discarded) by :meth:`reset`.

        Stateful subsystems hanging off the simulator — fault injectors,
        NMS watchdogs — register here so that back-to-back trials in one
        process start independent: :meth:`reset` both drains the heap *and*
        tells them to forget injected faults / timer handles.
        """
        self._reset_hooks.append(fn)

    def reset(self) -> None:
        """Discard all pending events and rewind the clock to zero.

        Also restarts the ``seq`` tiebreaker, so a reset simulator
        reproduces a fresh one bit for bit (same-timestamp events fire in
        the same order and carry the same ``seq`` values).  Reset hooks
        (:meth:`add_reset_hook`) run once and are then discarded — a
        re-armed subsystem must re-register.
        """
        self._heap.clear()
        self._now = 0.0
        self._m_processed.reset()
        if self._m_batch_events is not None:
            self._m_batch_events.reset()
            self._m_batch_packets.reset()
        self._cancelled.clear()
        self._epoch += 1
        self._seq = itertools.count()
        hooks, self._reset_hooks = self._reset_hooks, []
        for fn in hooks:
            fn()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.6f}, pending={len(self._heap)})"
