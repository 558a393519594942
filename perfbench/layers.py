"""Which program entry points belong to which layer, and the per-layer
metrics a traced run prints.

:func:`install` patches every entry point with a :class:`~tracer.Tracer`
span.  :func:`registry_counts` reads the counts the program already keeps
in its ``repro.obs`` registry.  :func:`per_layer_metrics` turns both into
the flat ``<module>.<metric>`` names listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

from tracer import Tracer


def _rows(args: tuple, result) -> int:
    return len(args[1])


def _len_result(args: tuple, result) -> int:
    return len(result)


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points (call before building any world)."""
    from repro.attack.flood import TrafficGenerator
    from repro.core.device import AdaptiveDevice
    from repro.core.ownership import OwnershipRegistry
    from repro.mitigation.pushback import Pushback
    from repro.mitigation.traceback import MarkingCollector
    from repro.net.addressing import CompiledPrefixTable, PrefixTable
    from repro.net.link import Link
    from repro.net.node import Host, Router
    from repro.net.simulator import Simulator
    from repro.policy.compiler import CompiledPolicy, compile_policy
    from repro.core.components import Verdict as ComponentVerdict
    from repro.scenario.build import build
    from repro.service.core import DecisionCore
    from repro.service.facade import ServiceFacade, TrafficController
    from repro.service.middleware import WsgiTrafficMiddleware
    from repro.util.stats import WindowedCounter

    p = tracer.patch
    p(Simulator, "run", "net.simulator")

    link = tracer.layer("net.link").counts
    link.update(packets=0, drops=0)

    def count_drop(send):
        def shim(self, packet, sim):
            accepted = send(self, packet, sim)
            link["packets"] += 1
            if accepted is False:
                link["drops"] += 1
            return accepted
        return shim

    def count_rejected(transmit_batch):
        def shim(self, packets, sim):
            rejected = transmit_batch(self, packets, sim)
            link["packets"] += len(packets)
            if rejected is not None:
                link["drops"] += len(rejected)
            return rejected
        return shim

    p(Link, "send", "net.link", shim=count_drop)
    p(Link, "transmit_batch", "net.link", shim=count_rejected)

    for cls in (Router, Host):
        p(cls, "receive", "net.node")
        p(cls, "receive_batch", "net.node")
    p(Router, "forward", "net.node", counter="forwards")
    p(Router, "forward_batch", "net.node", counter="forwards", count=_rows)

    for cls in (PrefixTable, CompiledPrefixTable):
        p(cls, "lookup", "net.addressing", counter="lookups",
          outer_only=True)
        for name in ("lookup_many", "lookup_many_int"):
            p(cls, name, "net.addressing", counter="lookups",
              count=_len_result, outer_only=True)

    def return_sent(emit):
        def shim(self):
            before = self.sent
            emit(self)
            return self.sent - before
        return shim

    p(TrafficGenerator, "_emit", "attack", shim=return_sent,
      counter="packets_emitted", count=lambda args, sent: sent)

    p(WindowedCounter, "add", "util.stats", counter="adds")

    # defenses act through router filters (added at deploy time and, for
    # pushback/traceback, during the run) plus their own timers; adding a
    # filter stays untimed, the filter itself becomes a span
    def wrap_filter(add_filter):
        def shim(self, name, fn):
            add_filter(self, name, tracer.wrap(fn, "mitigation"))
        return shim

    tracer.replace(Router, "add_filter", wrap_filter)
    p(Pushback, "_check", "mitigation")
    p(MarkingCollector, "on_packet", "mitigation")

    p(AdaptiveDevice, "wants", "core.device")
    p(AdaptiveDevice, "process", "core.device")
    p(AdaptiveDevice, "process_batch", "core.device")

    tracer.patch_function(build, "scenario")

    p(DecisionCore, "flow_entry", "service.core")
    p(DecisionCore, "flow_miss", "service.core", counter="misses")
    p(DecisionCore, "run_stages", "service.core")

    p(OwnershipRegistry, "owner_of", "core.ownership", counter="lookups")
    p(OwnershipRegistry, "owners_of_many", "core.ownership",
      counter="lookups", count=_len_result)

    drop = ComponentVerdict.DROP
    policy = tracer.layer("policy").counts
    policy.update(runs=0, drops=0)

    def count_drop_verdict(process):
        def shim(self, packet, ctx):
            verdict = process(self, packet, ctx)
            policy["runs"] += 1
            if verdict is drop:
                policy["drops"] += 1
            return verdict
        return shim

    p(CompiledPolicy, "process", "policy", shim=count_drop_verdict)
    p(CompiledPolicy, "run_batch", "policy", counter="runs", count=_rows)
    tracer.patch_function(compile_policy, "policy.compile",
                          counter="compiles")

    p(ServiceFacade, "check", "service.facade")
    p(ServiceFacade, "swap_policy", "service.facade")
    p(WsgiTrafficMiddleware, "__call__", "service.middleware")
    p(TrafficController, "allow", "service.middleware")


def registry_counts(snapshot: dict) -> dict[str, float]:
    """Sum the program's own counters out of one registry snapshot."""
    def total(prefix: str) -> float:
        return sum(v for k, v in snapshot.items()
                   if (k == prefix or k.startswith(prefix + "{"))
                   and isinstance(v, (int, float)))

    return {
        "events": total("sim.events_processed"),
        "link_packets": (total("net.link.tx_packets")
                         + total("net.link.dropped_packets")),
        "redirects": total("device.redirected"),
        "cache_hits": total("device.flow_cache_hits")
        + total("service.cache_hits"),
        "cache_misses": total("device.flow_cache_misses")
        + total("service.cache_misses"),
        "checks_pass": total("service.checks{verdict=pass}"),
        "checks_drop": total("service.checks{verdict=drop}"),
    }


def add_counts(into: dict, counts: dict) -> dict:
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value
    return into


#: name -> (unit, better) for every per-layer metric, in print order
PER_LAYER = {
    "net.simulator.events": ("count", "lower"),
    "net.simulator.self_s": ("s", "lower"),
    "net.link.packets": ("count", "lower"),
    "net.link.drops": ("count", "lower"),
    "net.link.drop_ratio": ("ratio", "lower"),
    "net.link.self_s": ("s", "lower"),
    "net.node.forwards": ("count", "lower"),
    "net.node.self_s": ("s", "lower"),
    "net.addressing.lookups": ("count", "lower"),
    "net.addressing.self_s": ("s", "lower"),
    "attack.packets_emitted": ("count", "lower"),
    "attack.self_s": ("s", "lower"),
    "util.stats.adds": ("count", "lower"),
    "util.stats.self_s": ("s", "lower"),
    "mitigation.self_s": ("s", "lower"),
    "core.device.redirects": ("count", "lower"),
    "core.device.self_s": ("s", "lower"),
    "scenario.build_busy_s": ("s", "lower"),
    "service.core.cache_hit_ratio": ("ratio", "higher"),
    "service.core.misses": ("count", "lower"),
    "service.core.self_s": ("s", "lower"),
    "core.ownership.lookups": ("count", "lower"),
    "core.ownership.self_s": ("s", "lower"),
    "policy.runs": ("count", "lower"),
    "policy.drops": ("count", "lower"),
    "policy.run_self_s": ("s", "lower"),
    "policy.compiles": ("count", "lower"),
    "policy.compile_busy_s": ("s", "lower"),
    "service.facade.checks_pass": ("count", "higher"),
    "service.facade.checks_drop": ("count", "lower"),
    "service.facade.self_s": ("s", "lower"),
    "service.facade.swap_p50_us": ("us", "lower"),
    "service.facade.swap_p90_us": ("us", "lower"),
    "service.middleware.requests_200": ("count", "higher"),
    "service.middleware.requests_403": ("count", "lower"),
    "service.middleware.requests_429": ("count", "lower"),
    "service.middleware.self_s": ("s", "lower"),
    "loadgen.late_p99_us": ("us", "lower"),
    "loadgen.late_max_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def per_layer_metrics(tracer: Tracer, counts: dict, extra: dict) -> dict:
    """Every :data:`PER_LAYER` metric from a traced run.

    ``counts`` holds :func:`registry_counts` sums and the statuses the
    benchmark saw; ``extra`` the values measured outside the tracer
    (swap times, generator lateness, the overhead ratio).
    """
    def layer(name: str):
        return tracer.layer(name)

    def count(name: str, key: str) -> int:
        return layer(name).counts.get(key, 0)

    link_packets = count("net.link", "packets")
    hits, misses = counts.get("cache_hits", 0), counts.get("cache_misses", 0)
    values = {
        "net.simulator.events": counts.get("events", 0),
        "net.simulator.self_s": layer("net.simulator").self_s,
        "net.link.packets": link_packets,
        "net.link.drops": count("net.link", "drops"),
        "net.link.drop_ratio": (count("net.link", "drops") / link_packets
                                if link_packets else 0.0),
        "net.link.self_s": layer("net.link").self_s,
        "net.node.forwards": count("net.node", "forwards"),
        "net.node.self_s": layer("net.node").self_s,
        "net.addressing.lookups": count("net.addressing", "lookups"),
        "net.addressing.self_s": layer("net.addressing").self_s,
        "attack.packets_emitted": count("attack", "packets_emitted"),
        "attack.self_s": layer("attack").self_s,
        "util.stats.adds": count("util.stats", "adds"),
        "util.stats.self_s": layer("util.stats").self_s,
        "mitigation.self_s": layer("mitigation").self_s,
        "core.device.redirects": counts.get("redirects", 0),
        "core.device.self_s": layer("core.device").self_s,
        "scenario.build_busy_s": layer("scenario").busy_s,
        "service.core.cache_hit_ratio": (hits / (hits + misses)
                                         if hits + misses else 0.0),
        "service.core.misses": count("service.core", "misses"),
        "service.core.self_s": layer("service.core").self_s,
        "core.ownership.lookups": count("core.ownership", "lookups"),
        "core.ownership.self_s": layer("core.ownership").self_s,
        "policy.runs": count("policy", "runs"),
        "policy.drops": count("policy", "drops"),
        "policy.run_self_s": layer("policy").self_s,
        "policy.compiles": count("policy.compile", "compiles"),
        "policy.compile_busy_s": layer("policy.compile").busy_s,
        "service.facade.checks_pass": counts.get("checks_pass", 0),
        "service.facade.checks_drop": counts.get("checks_drop", 0),
        "service.facade.self_s": layer("service.facade").self_s,
        "service.middleware.requests_200": counts.get("status_200", 0),
        "service.middleware.requests_403": counts.get("status_403", 0),
        "service.middleware.requests_429": counts.get("status_429", 0),
        "service.middleware.self_s": layer("service.middleware").self_s,
    }
    values.update(extra)
    for name in PER_LAYER:
        values.setdefault(name, 0)
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]}
            for name in PER_LAYER}
