import pytest

from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def nested_world(tracer, clock):
    """a (2s own) -> b (3s own) -> a again (1s own): 6s in spans."""
    def inner_a():
        clock.spend(1.0)

    def b():
        clock.spend(1.0)
        traced_inner_a()
        clock.spend(2.0)

    def outer_a():
        clock.spend(0.5)
        traced_b()
        clock.spend(1.5)

    traced_inner_a = tracer.wrap(inner_a, "a", counter="calls_seen")
    traced_b = tracer.wrap(b, "b")
    return tracer.wrap(outer_a, "a", counter="calls_seen")


def test_self_time_subtracts_child_spans_across_layers():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = nested_world(tracer, clock)
    clock.spend(0.25)            # untraced work before
    outer()
    clock.spend(0.75)            # and after
    a, b = tracer.layer("a"), tracer.layer("b")
    assert a.self_s == pytest.approx(3.0)
    assert b.self_s == pytest.approx(3.0)
    # busy time counts the outer a span once, not the nested one again
    assert a.busy_s == pytest.approx(6.0)
    assert b.busy_s == pytest.approx(4.0)
    assert a.calls == 2 and b.calls == 1
    assert a.counts["calls_seen"] == 2
    remainder = tracer.check_identity(clock.now)
    assert remainder == pytest.approx(1.0)


def test_identity_check_catches_lost_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    nested_world(tracer, clock)()
    tracer.layer("a").self_s -= 0.5     # a bookkeeping slip
    with pytest.raises(AssertionError, match="self times"):
        tracer.check_identity(clock.now)


def test_outer_only_counts_once_per_outermost_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def lookup(depth):
        return traced(depth - 1) if depth else 1

    traced = tracer.wrap(lookup, "addr", counter="lookups", outer_only=True)
    traced(3)
    assert tracer.layer("addr").counts["lookups"] == 1
    assert tracer.layer("addr").calls == 4


def test_patch_and_unpatch_restore_the_original():
    class Thing:
        def go(self, x):
            return x + 1

    original = Thing.__dict__["go"]
    tracer = Tracer()
    tracer.patch(Thing, "go", "thing", counter="goes")
    assert Thing().go(1) == 2
    assert tracer.layer("thing").counts["goes"] == 1
    tracer.unpatch()
    assert Thing.__dict__["go"] is original


def test_exception_still_closes_the_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.spend(1.0)
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap(boom, "err")()
    assert tracer.layer("err").self_s == pytest.approx(1.0)
    tracer.check_identity(clock.now)
