"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces a layer's entry points (class methods or
module functions) with timing wrappers.  Each wrapper call is one span:
it keeps a stack of open spans, so a span's self time is its duration
minus the time of the spans opened inside it, whatever layer those
belong to.  Per layer the tracer keeps calls, busy time (time with at
least one span of the layer open) and self time, plus named counts the
entry points add.  Everything stays in memory until :meth:`report`.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Optional

CountFn = Callable[[tuple, Any], int]


class LayerStats:
    __slots__ = ("name", "calls", "busy_s", "self_s", "depth", "counts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.counts: dict[str, int] = {}

    def as_dict(self) -> dict:
        return {"calls": self.calls, "busy_s": self.busy_s,
                "self_s": self.self_s, **self.counts}


class Tracer:
    """Span bookkeeping plus the patches that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: dict[str, LayerStats] = {}
        #: summed duration of spans opened with no other span open
        self.top_s = 0.0
        self._stack: list[list[float]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def layer(self, name: str) -> LayerStats:
        stats = self.layers.get(name)
        if stats is None:
            stats = self.layers[name] = LayerStats(name)
        return stats

    # ------------------------------------------------------------- spans
    def wrap(self, fn: Callable, layer: str, counter: Optional[str] = None,
             count: Optional[CountFn] = None,
             outer_only: bool = False) -> Callable:
        """``fn`` timed as a span of ``layer``.

        ``counter`` names a count the span adds to: ``count(args, result)``
        of it, or 1.  ``outer_only`` skips the count for a span nested in
        another span of the same layer (an API that calls itself).
        """
        stats = self.layer(layer)
        if counter is not None:
            stats.counts.setdefault(counter, 0)
        stack = self._stack
        clock = self.clock
        tracer = self

        def span(*args, **kwargs):
            start = clock()
            frame = [0.0]
            stack.append(frame)
            stats.depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stats.depth -= 1
                stats.calls += 1
                stats.self_s += dur - frame[0]
                if stats.depth == 0:
                    stats.busy_s += dur
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.top_s += dur
            if counter is not None and not (outer_only and stats.depth):
                stats.counts[counter] += (1 if count is None
                                          else count(args, result))
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", "span")
        return span

    # ----------------------------------------------------------- patches
    def replace(self, owner: Any, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr`` (a class or module attribute) to
        ``make(original)`` until :meth:`unpatch`."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch(self, owner: Any, attr: str, layer: str,
              shim: Optional[Callable[[Callable], Callable]] = None,
              **kw) -> None:
        """Replace ``owner.attr`` with a span of ``layer``.

        ``shim(original)`` may return a stand-in that does the counting
        the span's count function cannot; it runs inside the span.
        """
        self.replace(owner, attr, lambda original: self.wrap(
            original if shim is None else shim(original), layer, **kw))

    def patch_function(self, fn: Callable, layer: str, **kw) -> None:
        """Replace every module-level binding of ``fn`` in the ``repro``
        package (``from x import fn`` copies the name into each
        importer)."""
        span = self.wrap(fn, layer, **kw)
        name = fn.__name__
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro"
                                      or modname.startswith("repro.")):
                continue
            if module.__dict__.get(name) is fn:
                self._patches.append((module, name, fn))
                setattr(module, name, span)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ report
    def check_identity(self, wall_s: float) -> float:
        """Verify that summed self time plus the untraced remainder equals
        ``wall_s`` (the traced wall-clock); returns the remainder."""
        if self._stack:
            raise AssertionError(f"{len(self._stack)} spans still open")
        remainder = wall_s - self.top_s
        total_self = sum(s.self_s for s in self.layers.values())
        if remainder < -1e-6 * max(wall_s, 1.0):
            raise AssertionError(f"spans cover {self.top_s:.6f}s of a "
                                 f"{wall_s:.6f}s wall-clock")
        if abs(total_self + remainder - wall_s) > 1e-6 * max(wall_s, 1.0):
            raise AssertionError(
                f"self times {total_self:.9f}s + remainder {remainder:.9f}s "
                f"!= wall {wall_s:.9f}s")
        if any(s.self_s < -1e-9 or s.depth for s in self.layers.values()):
            raise AssertionError("negative self time or unbalanced spans")
        return remainder

    def report(self) -> dict:
        return {name: stats.as_dict()
                for name, stats in sorted(self.layers.items())}
