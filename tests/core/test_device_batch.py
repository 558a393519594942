"""The device's batched redirect path vs the scalar reference.

Property: ``process_batch`` over any permutation of a batch records a
byte-identical registry snapshot and the same per-packet verdicts as the
scalar ``wants``/``process`` loop the router runs — and that equality
holds when the comparison fans out through :func:`parallel_map` or a raw
process pool (the counters are order-invariant by construction: unique
flows are tallied in sorted order).

A second harness widens the parity check over device configurations:
both stage orders, order-sensitive components (a token bucket whose
owner appears in several owner pairs, a bounded logger), one component
shared by a user's two stages, a graph without a batch program, and a
non-strict device containing a safety violation.  For each, the batch
path over a permuted batch must leave the same verdicts, output sizes,
registry snapshot and component state (logger entries, bucket tokens)
as the scalar loop over the same packet order.

Parity requires distinct flows <= the device flow-cache capacity (no LRU
evictions); the traffic here stays far under it.
"""

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.core import (
    AdaptiveDevice,
    ComponentGraph,
    DeviceContext,
    NetworkUser,
    OwnershipRegistry,
)
from repro.core.components import (
    Capabilities,
    Component,
    HeaderFilter,
    HeaderMatch,
    LoggerComponent,
    PayloadScrubber,
    PrefixBlacklist,
    RateLimiterComponent,
    StatisticsCollector,
    Verdict,
)
from repro.experiments.common import parallel_map
from repro.net import ASRole, IPv4Address, PacketBatch, Prefix, Protocol
from repro.obs import scoped
from repro.scenario.devices import build_device

N_SUBSCRIBERS = 30
N_PACKETS = 200


def _make_batch(perm_seed):
    """Deterministic mixed traffic; ``flow_id`` = original index so drops
    can be mapped back through any permutation."""
    rng = np.random.default_rng(123)
    n = N_PACKETS
    # thirds: owned dst (subscriber /16s), owned src, unowned
    owned_dst = (rng.integers(1, N_SUBSCRIBERS + 1, n) << 16) \
        + rng.integers(1, 2**16, n)
    outside = (172 << 24) + (16 << 16) + rng.integers(1, 2**16, n)
    lane = rng.integers(0, 3, n)
    src = np.where(lane == 1, owned_dst, outside)
    dst = np.where(lane == 0, owned_dst, np.roll(outside, 1))
    proto = np.where(rng.random(n) < 0.5, Protocol.TCP.value,
                     Protocol.UDP.value)
    dport = np.where(rng.random(n) < 0.3, 7, 80)  # dport 7 TCP gets dropped
    batch = PacketBatch(src=src.astype(np.int64), dst=dst.astype(np.int64),
                        proto=proto.astype(np.int64),
                        dport=dport.astype(np.int64),
                        flow_id=np.arange(n, dtype=np.int64))
    if perm_seed is not None:
        perm = np.random.default_rng(perm_seed).permutation(n)
        batch = batch.select(perm)
    return batch


def _batch_outcome(perm_seed):
    """Pool-worker entry point: verdict vector + registry snapshot hash."""
    with scoped() as reg:
        device, _ = build_device(N_SUBSCRIBERS)
        batch = _make_batch(perm_seed)
        passed, dropped = device.process_batch(batch, 0.0, None)
        dropped_ids = set() if dropped is None else {
            int(x) for x in dropped.flow_id}
        n_pass = 0 if passed is None else len(passed)
        assert n_pass + len(dropped_ids) == N_PACKETS
        verdicts = tuple(i not in dropped_ids for i in range(N_PACKETS))
        text = json.dumps(reg.snapshot(), sort_keys=True)
    return verdicts, hashlib.sha256(text.encode()).hexdigest()


def _scalar_outcome(_=None):
    """The router's per-packet reference loop over the unshuffled batch."""
    with scoped() as reg:
        device, _ = build_device(N_SUBSCRIBERS)
        verdicts = []
        for packet in _make_batch(None).to_packets():
            if device.wants(packet):
                verdicts.append(device.process(packet, 0.0, None) is not None)
            else:
                verdicts.append(True)
        text = json.dumps(reg.snapshot(), sort_keys=True)
    return tuple(verdicts), hashlib.sha256(text.encode()).hexdigest()


SEEDS = [None, 1, 2, 3, 4]


class TestBatchMatchesScalar:
    def test_unshuffled_batch_matches_scalar(self):
        assert _batch_outcome(None) == _scalar_outcome()

    def test_traffic_exercises_both_verdicts(self):
        verdicts, _ = _scalar_outcome()
        assert any(verdicts) and not all(verdicts)

    def test_shuffles_are_invariant_serial(self):
        reference = _scalar_outcome()
        for seed in SEEDS:
            assert _batch_outcome(seed) == reference, f"perm seed {seed}"

    def test_parallel_map_matches_serial(self):
        serial = [_batch_outcome(s) for s in SEEDS]
        fanned = parallel_map(_batch_outcome, SEEDS, workers=2)
        assert fanned == serial

    def test_process_pool_matches_serial(self):
        serial = [_batch_outcome(s) for s in SEEDS]
        try:
            with ProcessPoolExecutor(max_workers=2) as pool:
                pooled = list(pool.map(_batch_outcome, SEEDS))
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"process pool unavailable here: {exc}")
        assert pooled == serial


class TestBatchEdgeCases:
    def test_empty_batch_passes_through(self):
        with scoped():
            device, _ = build_device(3)
            empty = PacketBatch(src=np.empty(0, dtype=np.int64),
                                dst=np.empty(0, dtype=np.int64))
            passed, dropped = device.process_batch(empty, 0.0, None)
            assert passed is empty and dropped is None

    def test_unowned_batch_untouched(self):
        with scoped():
            device, _ = build_device(3)
            outside = (172 << 24) + np.arange(5, dtype=np.int64)
            batch = PacketBatch(src=outside, dst=outside + 1000)
            passed, dropped = device.process_batch(batch, 0.0, None)
            assert passed is batch and dropped is None
            assert device.redirected == 0

    def test_crashed_fail_open_passes_all(self):
        with scoped():
            device, _ = build_device(3)
            device.crashed = True
            device.fail_policy = "fail-open"
            batch = _make_batch(None)
            passed, dropped = device.process_batch(batch, 0.0, None)
            assert passed is batch and dropped is None

    def test_crashed_fail_closed_drops_owned_only(self):
        with scoped():
            device, _ = build_device(N_SUBSCRIBERS)
            batch = _make_batch(None)
            scalar_owned = [device.registry.is_owned(p)
                            for p in batch.to_packets()]
            device.crashed = True
            device.fail_policy = "fail-closed"
            passed, dropped = device.process_batch(batch, 0.0, None)
            n_dropped = 0 if dropped is None else len(dropped)
            assert n_dropped == sum(scalar_owned) > 0
            assert (0 if passed is None else len(passed)) \
                == N_PACKETS - n_dropped


# ------------------------------------------------- configuration harness
N_USERS = 6
N_MIXED = 240


class LyingMutator(Component):
    """Declares itself benign but rewrites the destination address."""

    capabilities = Capabilities()

    def process(self, packet, ctx):
        packet.dst = IPv4Address(0x0A090909)
        return Verdict.PASS


def _drop7():
    return HeaderFilter("drop7", HeaderMatch(proto=Protocol.TCP, dport=7))


def _graph(name, *components):
    graph = ComponentGraph(name)
    graph.chain(*components)
    return graph


def _cfg_filters(device, users):
    for user in users:
        device.install(
            user,
            src_graph=_graph(f"src:{user.user_id}", StatisticsCollector(),
                             PrefixBlacklist("bl", [Prefix((9 << 16), 16)])),
            dst_graph=_graph(f"dst:{user.user_id}", _drop7()))


def _cfg_rate_limiter(device, users):
    # user-0's token bucket sees traffic from several owner pairs:
    # (user-0, None) and (user-0, user-k) for every destination owner
    device.install(users[0], src_graph=_graph(
        "rl", RateLimiterComponent("rl", rate_bps=8_000.0,
                                   burst_bytes=6_000.0)))
    for user in users[1:]:
        device.install(user, dst_graph=_graph(f"dst:{user.user_id}",
                                              _drop7()))


def _cfg_bounded_logger(device, users):
    for user in users:
        device.install(user, dst_graph=_graph(
            f"log:{user.user_id}", LoggerComponent("log", max_entries=7),
            _drop7()))
    device.install(users[2], src_graph=_graph(
        "log-src", LoggerComponent("log-src", max_entries=11)))


def _cfg_shared_component(device, users):
    shared = LoggerComponent("shared", max_entries=1_000)
    device.install(users[0], src_graph=_graph("shared-src", shared),
                   dst_graph=_graph("shared-dst", shared, _drop7()))
    for user in users[1:]:
        device.install(user, dst_graph=_graph(f"dst:{user.user_id}",
                                              _drop7()))


def _cfg_no_batch_program(device, users):
    device.install(users[1], dst_graph=_graph(
        "scrub", PayloadScrubber("scrub"), _drop7()))
    for user in users[2:]:
        device.install(user, dst_graph=_graph(f"dst:{user.user_id}",
                                              _drop7()))


def _cfg_non_strict(device, users):
    # user-3's only graph violates Sec. 4.5 on its first packet; the
    # non-strict device contains it and keeps forwarding
    device.install(users[3], src_graph=_graph("liar", LyingMutator("liar")))
    for user in users:
        if user is not users[3]:
            device.install(user, dst_graph=_graph(f"dst:{user.user_id}",
                                                  _drop7()))


CONFIGS = {
    "filters": (_cfg_filters, True),
    "rate-limiter": (_cfg_rate_limiter, True),
    "bounded-logger": (_cfg_bounded_logger, True),
    "shared-component": (_cfg_shared_component, True),
    "no-batch-program": (_cfg_no_batch_program, True),
    "non-strict": (_cfg_non_strict, False),
}
STAGE_ORDERS = ("src-first", "dst-first")
CASES = [(name, order) for name in CONFIGS for order in STAGE_ORDERS]


def _configured_device(config, stage_order):
    build, strict = CONFIGS[config]
    registry = OwnershipRegistry()
    users = []
    for i in range(N_USERS):
        user = NetworkUser(f"user-{i}", prefixes=[Prefix((i + 1) << 16, 16)])
        registry.register(user)
        users.append(user)
    device = AdaptiveDevice(
        DeviceContext(asn=1, role=ASRole.STUB,
                      local_prefix=Prefix.parse("192.168.0.0/16")),
        registry, strict=strict, stage_order=stage_order)
    build(device, users)
    return device


def _mixed_batch(perm_seed):
    """Unowned->owned, owned->unowned, owned->owned and unowned traffic
    over few hosts, so flows repeat and owner pairs overlap."""
    rng = np.random.default_rng(321)
    n = N_MIXED
    owned_a = (rng.integers(1, N_USERS + 1, n) << 16) + rng.integers(1, 4, n)
    owned_b = (rng.integers(1, N_USERS + 1, n) << 16) + rng.integers(1, 4, n)
    outside = (172 << 24) + (16 << 16) + rng.integers(1, 6, n)
    lane = rng.integers(0, 4, n)
    src = np.where((lane == 1) | (lane == 2), owned_a, outside)
    dst = np.where((lane == 0) | (lane == 2), owned_b, outside + 100)
    proto = np.where(rng.random(n) < 0.5, Protocol.TCP.value,
                     Protocol.UDP.value)
    dport = np.where(rng.random(n) < 0.3, 7, 80)
    batch = PacketBatch(src=src.astype(np.int64), dst=dst.astype(np.int64),
                        proto=proto.astype(np.int64),
                        dport=dport.astype(np.int64),
                        size=rng.integers(64, 1500, n).astype(np.int64),
                        flow_id=np.arange(n, dtype=np.int64))
    perm = np.random.default_rng(perm_seed).permutation(n)
    return batch.select(perm)


def _component_state(device):
    state = []
    for user_id, instance in sorted(device.services.items()):
        for graph in (instance.src_graph, instance.dst_graph):
            if graph is None:
                continue
            for comp in graph.components():
                if isinstance(comp, LoggerComponent):
                    state.append((user_id, comp.name, tuple(comp.entries)))
                elif isinstance(comp, RateLimiterComponent):
                    bucket = comp.bucket
                    state.append((user_id, comp.name, bucket._tokens,
                                  bucket._last, bucket.admitted,
                                  bucket.rejected))
                elif isinstance(comp, PayloadScrubber):
                    state.append((user_id, comp.name, comp.scrubbed_bytes))
        state.append((user_id, instance.disabled_for_violation))
    return tuple(state)


def _outcome(device, reg, sizes):
    """Verdicts and output sizes indexed by flow id, plus the registry
    snapshot hash and component state."""
    verdicts = tuple(i in sizes for i in range(N_MIXED))
    text = json.dumps(reg.snapshot(), sort_keys=True)
    return (verdicts, tuple(sorted(sizes.items())),
            hashlib.sha256(text.encode()).hexdigest(),
            _component_state(device))


def _config_batch_outcome(case):
    config, stage_order, perm_seed = case
    with scoped() as reg:
        device = _configured_device(config, stage_order)
        batch = _mixed_batch(perm_seed)
        passed, dropped = device.process_batch(batch, 0.0, None)
        n_dropped = 0 if dropped is None else len(dropped)
        sizes = {} if passed is None else {
            int(f): int(s) for f, s in zip(passed.flow_id, passed.size)}
        assert len(sizes) + n_dropped == N_MIXED
        return _outcome(device, reg, sizes)


def _config_scalar_outcome(case):
    config, stage_order, perm_seed = case
    with scoped() as reg:
        device = _configured_device(config, stage_order)
        batch = _mixed_batch(perm_seed)
        sizes = {}
        for packet in batch.to_packets():
            if device.wants(packet):
                out = device.process(packet, 0.0, None)
                if out is not None:
                    sizes[packet.flow_id] = out.size
            else:
                sizes[packet.flow_id] = packet.size
        return _outcome(device, reg, sizes)


CONFIG_SEEDS = [0, 1, 2]


class TestConfigurationParity:
    @pytest.mark.parametrize("config,stage_order", CASES)
    def test_batch_matches_scalar(self, config, stage_order):
        for seed in CONFIG_SEEDS:
            case = (config, stage_order, seed)
            assert _config_batch_outcome(case) \
                == _config_scalar_outcome(case), f"perm seed {seed}"

    @pytest.mark.parametrize("config", list(CONFIGS))
    def test_configuration_is_exercised(self, config):
        """Each configuration passes some traffic and drops some, so
        parity is not vacuous."""
        verdicts, _, _, state = _config_scalar_outcome(
            (config, "src-first", 0))
        assert any(verdicts) and not all(verdicts)
        if config in ("rate-limiter", "bounded-logger", "shared-component",
                      "no-batch-program"):
            assert any(len(entry) > 2 for entry in state)

    def test_stage_order_changes_the_accounting(self):
        """Under dst-first, owned-to-owned packets dropped by the
        destination stage never reach the source stage, so the two orders
        leave different per-graph counters."""
        src_first = _config_scalar_outcome(("filters", "src-first", 0))
        dst_first = _config_scalar_outcome(("filters", "dst-first", 0))
        assert src_first[0] == dst_first[0]
        assert src_first[2] != dst_first[2]

    def test_non_strict_contains_the_violation(self):
        with scoped():
            device = _configured_device("non-strict", "src-first")
            device.process_batch(_mixed_batch(0), 0.0, None)
            assert device.services["user-3"].disabled_for_violation
            assert device.safety_disables == 1

    def test_process_pool_matches_serial(self):
        cases = [(config, order, 0) for config, order in CASES]
        serial = [_config_batch_outcome(c) for c in cases]
        assert serial == [_config_scalar_outcome(c) for c in cases]
        try:
            with ProcessPoolExecutor(max_workers=2) as pool:
                pooled = list(pool.map(_config_batch_outcome, cases))
        except (OSError, PermissionError) as exc:  # pragma: no cover
            pytest.skip(f"process pool unavailable here: {exc}")
        assert pooled == serial
