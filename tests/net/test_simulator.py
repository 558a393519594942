"""Unit tests for the discrete-event simulator."""

import pytest
from hypothesis import example, given, strategies as st

from repro.errors import SimulationError
from repro.net import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        out = []
        sim.schedule(2.0, out.append, "late")
        sim.schedule(1.0, out.append, "early")
        sim.run()
        assert out == ["early", "late"]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        out = []
        for i in range(5):
            sim.schedule(1.0, out.append, i)
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        out = []

        def outer():
            out.append(("outer", sim.now))
            sim.schedule(1.0, inner)

        def inner():
            out.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert out == [("outer", 1.0), ("inner", 2.0)]

    def test_cancel(self):
        sim = Simulator()
        out = []
        ev = sim.schedule(1.0, out.append, "x")
        ev.cancel()
        sim.run()
        assert out == []

    def test_run_until_stops_clock(self):
        sim = Simulator()
        out = []
        sim.schedule(1.0, out.append, "a")
        sim.schedule(5.0, out.append, "b")
        sim.run(until=2.0)
        assert out == ["a"]
        assert sim.now == 2.0
        sim.run()
        assert out == ["a", "b"]

    def test_run_max_events(self):
        sim = Simulator()
        out = []
        for i in range(10):
            sim.schedule(float(i + 1), out.append, i)
        n = sim.run(max_events=3)
        assert n == 3
        assert out == [0, 1, 2]

    def test_run_with_no_events_sets_until(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_reset(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending == 0

    def test_reset_restarts_seq_tiebreaker(self):
        """A reset simulator must be bit-for-bit identical to a fresh one,
        including the seq values it assigns (regression: ``_seq`` used to
        keep counting across resets)."""
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        sim.reset()
        ev = sim.schedule(1.0, lambda: None)
        fresh_ev = Simulator().schedule(1.0, lambda: None)
        assert ev.seq == fresh_ev.seq == 0

    def test_reset_then_replay_matches_fresh(self):
        def fill(sim, out):
            for i in range(4):
                sim.schedule(1.0, out.append, i)
            sim.schedule(0.5, out.append, "first")
            sim.run()

        fresh_out: list = []
        fill(Simulator(), fresh_out)
        reused = Simulator()
        fill(reused, [])
        reused.reset()
        reused_out: list = []
        fill(reused, reused_out)
        assert reused_out == fresh_out


class TestPeriodic:
    def test_schedule_every(self):
        sim = Simulator()
        ticks = []
        sim.schedule_every(1.0, lambda: ticks.append(sim.now), until=5.0)
        sim.run()
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_schedule_every_stops_on_false(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            return len(ticks) < 3

        sim.schedule_every(1.0, tick)
        sim.run()
        assert len(ticks) == 3

    def test_explicit_start(self):
        sim = Simulator()
        ticks = []
        sim.schedule_every(2.0, lambda: ticks.append(sim.now), start=0.5, until=5.0)
        sim.run()
        assert ticks == [0.5, 2.5, 4.5]

    def test_bad_interval(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_every(0.0, lambda: None)


class TestHeapCompaction:
    def test_mass_cancellation_compacts_heap(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(1000)]
        for ev in events[:900]:
            ev.cancel()
        # tombstones swept once they dominate, without waiting for pop time
        assert sim.pending < 1000

    def test_compaction_preserves_ordering(self):
        sim = Simulator()
        out = []
        events = [sim.schedule(float(i % 7), out.append, i) for i in range(500)]
        keep = {i for i in range(500) if i % 3 == 0}
        for i, ev in enumerate(events):
            if i not in keep:
                ev.cancel()
        sim.run()
        expected = sorted(keep, key=lambda i: (float(i % 7), i))
        assert out == expected

    def test_cancel_during_run_is_safe(self):
        sim = Simulator()
        out = []
        later = [sim.schedule(2.0 + i * 1e-6, out.append, i) for i in range(200)]

        def cancel_most():
            for ev in later[:190]:
                ev.cancel()

        sim.schedule(1.0, cancel_most)
        sim.run()
        assert out == list(range(190, 200))

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert sim.events_cancelled == 1
        assert len(sim._cancelled) == 1
        sim.run()
        assert not sim._cancelled


class TestDeterminism:
    @given(delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
    def test_replay_identical(self, delays):
        def run_once():
            sim = Simulator()
            out = []
            for i, d in enumerate(delays):
                sim.schedule(d, out.append, (d, i))
            sim.run()
            return out

        assert run_once() == run_once()

    @given(delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50))
    def test_fire_times_sorted(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)


class TestCancelHandles:
    def test_cancel_after_firing_is_a_noop(self):
        sim = Simulator()
        out = []
        ev = sim.schedule(1.0, out.append, "x")
        sim.run()
        ev.cancel()
        assert out == ["x"]
        assert sim.events_cancelled == 0

    def test_cancel_from_own_callback_counts_nothing(self):
        sim = Simulator()
        handles = []
        handles.append(sim.schedule(1.0, lambda: handles[0].cancel()))
        sim.run()
        assert sim.events_processed == 1
        assert sim.events_cancelled == 0

    def test_handle_from_before_reset_is_inert(self):
        sim = Simulator()
        out = []
        stale = sim.schedule(1.0, out.append, "stale")
        sim.reset()
        sim.schedule(1.0, out.append, "fresh")  # reuses seq 0
        stale.cancel()
        sim.run()
        assert out == ["fresh"]
        assert sim.events_cancelled == 0

    def test_cancelling_a_periodic_handle_stops_the_recurrence(self):
        sim = Simulator()
        ticks = []
        ev = sim.schedule_every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=2.5)
        ev.cancel()
        sim.run(until=6.5)
        assert ticks == [1.0, 2.0]
        assert sim.events_cancelled == 1  # the pending tick at 3.0
        assert sim.pending == 0

    def test_periodic_cancelled_inside_its_own_tick(self):
        sim = Simulator()
        ticks = []
        handle = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                handle[0].cancel()

        handle.append(sim.schedule_every(1.0, tick))
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert sim.events_cancelled == 0  # the firing tick was already popped

    def test_periodic_cancel_after_until_counts_nothing(self):
        sim = Simulator()
        ev = sim.schedule_every(1.0, lambda: None, until=3.0)
        sim.run()
        ev.cancel()
        assert sim.events_processed == 3
        assert sim.events_cancelled == 0


class TestScheduleBatch:
    def test_negative_delay_leaves_counters_untouched(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_batch(-1.0, lambda batch: None, [1, 2, 3])
        assert sim.batch_events == 0
        assert sim.batch_packets == 0
        sim.schedule_batch(1.0, lambda batch: None, [1, 2, 3])
        assert sim.batch_events == 1
        assert sim.batch_packets == 3


# -- differential model: a sorted list of live entries -----------------------
# One op per tuple; ``cancel`` indexes into the handles made so far (by
# ``schedule``/``schedule_at``), so repeats and cancels after firing occur.
_TIMES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0])
_OPS = st.one_of(
    st.tuples(st.just("schedule"), _TIMES),
    st.tuples(st.just("schedule_at"), _TIMES),
    st.tuples(st.just("post"), _TIMES),
    st.tuples(st.just("cancel"), st.integers(0, 400)),
    # cancel a contiguous range of handles: enough tombstones at once to
    # cross the compaction threshold
    st.tuples(st.just("cancel_range"), st.integers(0, 400),
              st.integers(1, 150)),
    st.tuples(st.just("bulk"), st.integers(1, 150)),
    st.tuples(st.just("run"), _TIMES),
)


class TestAgainstReferenceModel:
    @given(ops=st.lists(_OPS, max_size=60))
    # always cross the compaction threshold (75 of 150 tombstones), then
    # cancel entries that fired, were swept, or are still pending
    @example(ops=[("bulk", 150), ("cancel_range", 0, 100), ("run", 0.5),
                  ("cancel_range", 0, 150), ("post", 0.25), ("run", 3.0)])
    def test_fire_order_and_counters_match_the_model(self, ops):
        sim = Simulator()
        fired: list[int] = []
        model: list[tuple[float, int]] = []  # live (time, seq) entries
        model_fired: list[int] = []
        handles: list = []                   # (handle, seq)
        handle_state: dict[int, str] = {}    # seq -> pending/fired/cancelled
        cancelled = 0
        seq = 0
        now = 0.0

        def add(time: float, kind: str) -> None:
            nonlocal seq
            tag = seq
            if kind == "schedule":
                handles.append((sim.schedule(time - now, fired.append, tag), tag))
            elif kind == "schedule_at":
                handles.append((sim.schedule_at(time, fired.append, tag), tag))
            else:
                sim.post(time, fired.append, tag)
            model.append((time, tag))
            handle_state[tag] = "pending"
            seq += 1

        def cancel(i: int) -> None:
            nonlocal cancelled
            if not handles:
                return
            handle, tag = handles[i % len(handles)]
            handle.cancel()
            if handle_state[tag] == "pending":
                handle_state[tag] = "cancelled"
                model.remove(next(e for e in model if e[1] == tag))
                cancelled += 1

        for op in ops:
            if op[0] in ("schedule", "schedule_at", "post"):
                add(now + op[1], op[0])
            elif op[0] == "bulk":
                for k in range(op[1]):
                    add(now + (k % 5) * 0.5, "schedule")
            elif op[0] == "cancel":
                cancel(op[1])
            elif op[0] == "cancel_range":
                for i in range(op[1], op[1] + op[2]):
                    cancel(i)
            else:
                until = now + op[1]
                sim.run(until=until)
                due = sorted(e for e in model if e[0] <= until)
                for entry in due:
                    model.remove(entry)
                    model_fired.append(entry[1])
                    handle_state[entry[1]] = "fired"
                now = until
            assert fired == model_fired
        sim.run()
        model_fired.extend(tag for _, tag in sorted(model))
        assert fired == model_fired
        assert sim.events_processed == len(model_fired)
        assert sim.events_cancelled == cancelled
        assert sim.pending == 0
