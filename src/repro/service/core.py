"""The engine-agnostic TCS decision core (carved out of the device).

:class:`DecisionCore` owns the paper's per-packet decision path —
ownership-LPM redirect decision behind a per-flow LRU cache, the
source-owner/destination-owner two-stage pipeline, and the Sec. 4.5
safety containment that disables a violating service on the spot.  Both
consumers share it byte-for-byte:

* the simulator's :class:`~repro.core.device.AdaptiveDevice` delegates
  its scalar path (:meth:`DecisionCore.wants`/:meth:`DecisionCore.process`)
  and its batch path (:meth:`DecisionCore.decide_batch`) here, and
  injects its ``device.*`` registry counters, so experiment tables are
  unchanged by the extraction,
* the live :class:`~repro.service.facade.ServiceFacade` drives the same
  core from wall-clock (or injected) time and emits ``service.*``
  counters instead.

Counters are injected as anything with a ``value`` attribute (registry
``Counter`` instruments or plain :class:`StatCell` cells), so the core
itself declares no metric families and can run registry-free.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional, TYPE_CHECKING

import numpy as np

from repro.errors import DeploymentError, SafetyViolation
from repro.core.components import ComponentContext, Verdict
from repro.core.graph import ComponentGraph
from repro.core.ownership import NetworkUser, OwnershipRegistry
from repro.net.addressing import IPv4Address
from repro.policy.compiler import compile_policy
from repro.net.packet import Packet, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.device import DeviceContext, ServiceInstance
    from repro.net.packet import PacketBatch

__all__ = ["DecisionCore", "StatCell", "FLOW_CACHE_CAPACITY"]

#: Default per-core LRU flow-cache capacity (distinct 4-tuples).
FLOW_CACHE_CAPACITY = 4096

#: The counter slots a core accounts into (see ``counters=`` below).
COUNTER_NAMES = ("redirected", "dropped", "safety_disables",
                 "flow_cache_hits", "flow_cache_misses")


class StatCell:
    """Registry-free counter cell: the ``.value`` contract of
    :class:`repro.obs.metrics.Counter` without any registry."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def reset(self) -> None:
        self.value = 0


class DecisionCore:
    """Redirect decision + two-stage pipeline, independent of any engine.

    ``context`` is a :class:`~repro.core.device.DeviceContext` (where the
    decision point sits); ``services`` is the mutable user-id ->
    :class:`~repro.core.device.ServiceInstance` map (shared by reference
    with the owning device or facade); ``counters`` maps the names in
    :data:`COUNTER_NAMES` to objects with a ``value`` attribute —
    unnamed slots get private :class:`StatCell` cells.
    """

    __slots__ = ("context", "registry", "services", "strict", "stage_order",
                 "flow_cache", "flow_cache_capacity", "_flow_cache_version",
                 "generation",
                 "m_redirected", "m_dropped", "m_safety_disables",
                 "m_fc_hits", "m_fc_misses")

    def __init__(self, context: "DeviceContext", registry: OwnershipRegistry,
                 *, services: Optional[dict] = None, strict: bool = True,
                 stage_order: str = "src-first",
                 flow_cache_capacity: int = FLOW_CACHE_CAPACITY,
                 counters: Optional[dict] = None) -> None:
        if stage_order not in ("src-first", "dst-first"):
            raise DeploymentError(f"unknown stage order {stage_order!r}")
        self.context = context
        self.registry = registry
        self.services: dict[str, "ServiceInstance"] = (
            {} if services is None else services)
        #: strict=True re-raises safety violations (library/API use);
        #: strict=False contains them (live path: restore the packet,
        #: disable the service, keep forwarding).
        self.strict = strict
        #: the paper mandates source stage before destination stage
        #: ("first sending ... and then receiving", Sec. 4.1); "dst-first"
        #: exists only for the E13 ablation.
        self.stage_order = stage_order
        #: per-flow fast path: 4-tuple -> (src_owner, dst_owner,
        #: redirect?), so repeat packets of a flow skip both ownership
        #: LPM walks and the service-membership check.
        self.flow_cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        self.flow_cache_capacity = flow_cache_capacity
        self._flow_cache_version = registry.version
        #: policy generation: bumped on every invalidation (install/
        #: uninstall/activation/hot-swap), so observers can tag cached
        #: decisions and verify a swap took effect atomically
        self.generation = 0
        c = counters or {}
        self.m_redirected = c.get("redirected") or StatCell()
        self.m_dropped = c.get("dropped") or StatCell()
        self.m_safety_disables = c.get("safety_disables") or StatCell()
        self.m_fc_hits = c.get("flow_cache_hits") or StatCell()
        self.m_fc_misses = c.get("flow_cache_misses") or StatCell()

    # -------------------------------------------------------------- management
    def install(self, user: NetworkUser,
                src_graph: Optional[ComponentGraph] = None,
                dst_graph: Optional[ComponentGraph] = None
                ) -> "ServiceInstance":
        """Install (after vetting) a user's stage graphs."""
        from repro.core.device import ServiceInstance

        if src_graph is None and dst_graph is None:
            raise DeploymentError(f"user {user.user_id!r}: nothing to install")
        for graph in (src_graph, dst_graph):
            if graph is not None:
                # compiler-pass vetting: same exceptions/messages as
                # vet_graph, and the compiled programs are cached for the
                # execution paths below
                compile_policy(graph, vet=True)
        instance = self.services.get(user.user_id)
        if instance is None:
            instance = ServiceInstance(user=user)
            self.services[user.user_id] = instance
        if src_graph is not None:
            instance.src_graph = src_graph
        if dst_graph is not None:
            instance.dst_graph = dst_graph
        instance.disabled_for_violation = False
        self.invalidate()
        return instance

    def uninstall(self, user_id: str) -> bool:
        removed = self.services.pop(user_id, None) is not None
        if removed:
            self.invalidate()
        return removed

    def set_active(self, user_id: str, active: bool) -> None:
        try:
            self.services[user_id].active = active
        except KeyError as exc:
            raise DeploymentError(f"no service for user {user_id!r} here") from exc
        # cached redirect decisions embed the active flag — drop them, or a
        # deactivated service's flows would keep being redirected (and a
        # re-activated one's would keep bypassing the pipeline)
        self.invalidate()

    def rule_count(self) -> int:
        """Total installed components — the Sec. 5.3 scaling quantity."""
        return sum(s.rule_count() for s in self.services.values())

    # -------------------------------------------------------------- fast path
    def invalidate(self) -> None:
        """Drop every cached per-flow decision (service set changed) and
        advance the policy generation tag."""
        self.flow_cache.clear()
        self.generation += 1

    def synced_cache(self) -> "OrderedDict[tuple, tuple]":
        """The flow cache, cleared first if the ownership registry changed
        since the last lookup (detected via its version counter)."""
        cache = self.flow_cache
        if self._flow_cache_version != self.registry.version:
            cache.clear()
            self._flow_cache_version = self.registry.version
        return cache

    def flow_entry(self, src: int, dst: int, proto: Protocol,
                   dport: int) -> tuple:
        """Resolve ``(src_owner, dst_owner, redirect?)`` for one flow
        4-tuple (addresses as ints), caching the answer.

        Entries survive until the LRU evicts them, a service is installed
        or uninstalled here, or the ownership registry changes.
        """
        cache = self.synced_cache()
        key = (src, dst, proto, dport)
        entry = cache.get(key)
        if entry is not None:
            self.m_fc_hits.value += 1
            cache.move_to_end(key)
            return entry
        return self.flow_miss(key)

    def flow_miss(self, key: tuple) -> tuple:
        """Slow path: resolve owners via the registry and cache the result."""
        self.m_fc_misses.value += 1
        registry = self.registry
        return self._cache_owners(key, registry.owner_of(key[0]),
                                  registry.owner_of(key[1]))

    def _cache_owners(self, key: tuple, src_owner: Optional[NetworkUser],
                      dst_owner: Optional[NetworkUser]) -> tuple:
        """Cache and return the ``(src_owner, dst_owner, redirect?)`` entry
        for a flow whose owners are resolved."""
        services = self.services
        src_inst = None if src_owner is None else services.get(src_owner.user_id)
        dst_inst = None if dst_owner is None else services.get(dst_owner.user_id)
        # only *active* services claim the flow; set_active/install/
        # uninstall invalidate the cache so entries never go stale
        wants = ((src_inst is not None and src_inst.active)
                 or (dst_inst is not None and dst_inst.active))
        entry = (src_owner, dst_owner, wants)
        cache = self.flow_cache
        cache[key] = entry
        if len(cache) > self.flow_cache_capacity:
            cache.popitem(last=False)
        return entry

    def wants(self, packet: Packet) -> bool:
        """Redirect decision: does a registered user with an active service
        here own this packet?  Everything else takes the direct path.

        Mirrors :meth:`flow_entry` inline — this is the single hottest
        call in the simulator, so it spends no extra stack frame on a hit.
        """
        cache = self.flow_cache
        if self._flow_cache_version != self.registry.version:
            cache.clear()
            self._flow_cache_version = self.registry.version
        key = (packet.src.value, packet.dst.value, packet.proto, packet.dport)
        entry = cache.get(key)
        if entry is not None:
            self.m_fc_hits.value += 1
            cache.move_to_end(key)
            return entry[2]
        return self.flow_miss(key)[2]

    # --------------------------------------------------------------- pipeline
    def process(self, packet: Packet, now: float,
                ingress_asn: Optional[int]) -> Optional[Packet]:
        """Run the two processing stages; None means the packet was dropped."""
        self.m_redirected.value += 1
        src_owner, dst_owner, _ = self.flow_entry(
            packet.src.value, packet.dst.value, packet.proto, packet.dport)
        return self.run_stages(packet, src_owner, dst_owner, now, ingress_asn)

    def run_stages(self, packet: Packet, src_owner: Optional[NetworkUser],
                   dst_owner: Optional[NetworkUser], now: float,
                   ingress_asn: Optional[int]) -> Optional[Packet]:
        """The two-stage loop with owners already resolved (shared by the
        scalar path, the batch path's scalar rows, and the live facade)."""
        for instance, graph, ctx in self._stages(src_owner, dst_owner, now,
                                                 ingress_asn):
            before = instance.monitor.note_in(packet)
            # compiled scalar program: byte-identical verdicts/counters to
            # the interpreted graph.process walk (kept as the differential
            # oracle)
            verdict = graph.compiled().process(packet, ctx)
            result = packet if verdict is Verdict.PASS else None
            try:
                instance.monitor.check(before, result, graph.name)
            except SafetyViolation:
                # Sec. 4.5: contain the misbehaving service immediately.
                instance.disabled_for_violation = True
                self.m_safety_disables.value += 1
                if self.strict:
                    raise
                # fail-safe containment: undo the forbidden mutations and
                # let the packet continue on the normal path
                packet.src = IPv4Address(before.src)
                packet.dst = IPv4Address(before.dst)
                packet.ttl = before.ttl
                packet.size = before.size
                continue
            if result is None:
                self.m_dropped.value += 1
                return None
        return packet

    def _stages(self, src_owner: Optional[NetworkUser],
                dst_owner: Optional[NetworkUser], now: float,
                ingress_asn: Optional[int]
                ) -> Iterator[tuple["ServiceInstance", ComponentGraph,
                                    ComponentContext]]:
        """Yield ``(instance, graph, ctx)`` for every stage that runs, in
        stage order: the owner has an active, not-disabled service here
        with a graph for that stage.  Eligibility is checked as each stage
        is reached, so a violation contained in the first stage also skips
        a second stage of the same service.  ``ctx`` is what the stage's
        components see: time, the Sec. 4.2 device context, the stage and
        its owner, and where the packet entered."""
        stages = ((src_owner, "source"), (dst_owner, "dest"))
        if self.stage_order == "dst-first":  # E13 ablation only
            stages = stages[::-1]
        services = self.services
        for owner, stage in stages:
            if owner is None:
                continue
            instance = services.get(owner.user_id)
            if (instance is None or not instance.active
                    or instance.disabled_for_violation):
                continue
            graph = (instance.src_graph if stage == "source"
                     else instance.dst_graph)
            if graph is not None:
                context = self.context
                yield instance, graph, ComponentContext(
                    now=now, asn=context.asn, is_transit=context.is_transit,
                    local_prefix=context.local_prefix, stage=stage,
                    owner=owner, ingress_asn=ingress_asn,
                    local_origin=ingress_asn is None,
                )

    # ----------------------------------------------------------- batch path
    def decide_batch(self, batch: "PacketBatch", now: float,
                     ingress_asn: Optional[int]
                     ) -> tuple[Optional["PacketBatch"],
                                Optional["PacketBatch"]]:
        """Vectorised redirect decision + two-stage pipeline over a batch.

        1. flow resolution — the batch's 4-tuples collapse to unique flows
           (``np.unique`` over packed uint64 key columns); cached flows are
           resolved with one dict probe each, and the *miss set only* is
           batch-fed through the ownership registry's compiled LPM
           (:meth:`OwnershipRegistry.owners_of_many`),
        2. redirect decision — a boolean take over the per-flow verdicts,
        3. compiled stages — redirected flows are grouped by owner pair;
           a group whose stages all have batch programs runs them
           vectorised (:meth:`CompiledPolicy.run_batch`),
        4. scalar rows — every other redirected packet is materialised and
           run through :meth:`run_stages` in row order, exactly as the
           scalar engine would.

        Returns ``(passed, dropped)`` sub-batches (either may be ``None``).
        Verdicts, counter totals and component state equal the scalar
        ``wants``/``process`` loop's for any packet order, provided the
        batch's distinct flows fit the flow cache (no LRU churn
        mid-batch) — the property pinned by tests/core/test_device_batch.py.
        """
        n = len(batch)
        if n == 0:
            return batch, None
        cache = self.synced_cache()
        key_a, key_b = batch.flow_keys()
        pairs = np.empty(n, dtype=[("a", np.uint64), ("b", np.uint64)])
        pairs["a"] = key_a
        pairs["b"] = key_b
        _, first_idx, inverse, counts = np.unique(
            pairs, return_index=True, return_inverse=True, return_counts=True)
        n_unique = len(first_idx)
        entries: list[tuple] = [()] * n_unique
        hits = 0
        misses: list[tuple[int, tuple, int]] = []  # (slot, key, row)
        for j in range(n_unique):
            row = int(first_idx[j])
            key = (int(batch.src[row]), int(batch.dst[row]),
                   Protocol(int(batch.proto[row])), int(batch.dport[row]))
            entry = cache.get(key)
            if entry is not None:
                # scalar parity: first packet of the flow hits, and so do
                # its count-1 repeats
                hits += int(counts[j])
                cache.move_to_end(key)
                entries[j] = entry
            else:
                # scalar parity: first packet misses, repeats then hit
                hits += int(counts[j]) - 1
                misses.append((j, key, row))
        if misses:
            miss_rows = np.array([row for _, _, row in misses],
                                 dtype=np.int64)
            src_owners = self.registry.owners_of_many(batch.src[miss_rows])
            dst_owners = self.registry.owners_of_many(batch.dst[miss_rows])
            for (j, key, _), src_owner, dst_owner in zip(
                    misses, src_owners, dst_owners):
                entries[j] = self._cache_owners(key, src_owner, dst_owner)
        self.m_fc_hits.value += hits
        self.m_fc_misses.value += len(misses)

        wants_flow = np.fromiter((e[2] for e in entries), dtype=bool,
                                 count=n_unique)
        wanted = wants_flow[inverse]
        n_wanted = int(wanted.sum())
        if n_wanted == 0:
            return batch, None
        # scalar parity: each redirected packet re-probes the cache inside
        # process() (one extra hit) before running its stages
        self.m_redirected.value += n_wanted
        self.m_fc_hits.value += n_wanted

        groups: dict[tuple, list[int]] = {}
        for j in np.flatnonzero(wants_flow).tolist():
            src_owner, dst_owner, _ = entries[j]
            gkey = (None if src_owner is None else src_owner.user_id,
                    None if dst_owner is None else dst_owner.user_id)
            groups.setdefault(gkey, []).append(j)
        keep = np.ones(n, dtype=bool)
        scalar_rows = wanted.copy()
        for flow_js in groups.values():
            src_owner, dst_owner, _ = entries[flow_js[0]]
            programs = self._batch_programs(src_owner, dst_owner, now,
                                            ingress_asn)
            if programs is None:
                continue
            member = np.zeros(n_unique, dtype=bool)
            member[flow_js] = True
            in_group = member[inverse]
            scalar_rows &= ~in_group
            rows = np.flatnonzero(in_group)
            n_group = len(rows)
            for instance, compiled, ctx in programs:
                if len(rows) == 0:
                    break
                # the compiled kernels implement each component's declared
                # semantics, so no violation is possible: the per-packet
                # monitor snapshot collapses to in/out accounting
                monitor = instance.monitor
                sizes = batch.size[rows]
                monitor.packets_in += len(rows)
                monitor.bytes_in += int(sizes.sum())
                alive = compiled.run_batch(batch, rows, ctx)
                monitor.packets_out += int(alive.sum())
                monitor.bytes_out += int(sizes[alive].sum())
                rows = rows[alive]
            if len(rows) < n_group:
                self.m_dropped.value += n_group - len(rows)
                keep[in_group] = False
                keep[rows] = True

        for i in np.flatnonzero(scalar_rows).tolist():
            src_owner, dst_owner, _ = entries[int(inverse[i])]
            out = self.run_stages(batch.packet_at(i), src_owner, dst_owner,
                                  now, ingress_asn)
            if out is None:
                keep[i] = False
            else:
                batch.write_back(i, out)
        if keep.all():
            return batch, None
        dropped = batch.select(~keep)
        passed = batch.select(keep) if keep.any() else None
        return passed, dropped

    def _batch_programs(self, src_owner: Optional[NetworkUser],
                        dst_owner: Optional[NetworkUser], now: float,
                        ingress_asn: Optional[int]
                        ) -> Optional[list[tuple]]:
        """``(instance, compiled, ctx)`` for one owner pair's stages, or
        ``None`` when the pair must take the scalar rows:

        * a stage has no batch program (non-vectorizable ops),
        * a program is order-sensitive (token buckets, bounded logs): its
          state depends on seeing packets in row order, which running
          group by group would not keep,
        * the two stages share a component, which batching one whole stage
          before the other would show a reordered packet stream.
        """
        programs: list[tuple] = []
        for instance, graph, ctx in self._stages(src_owner, dst_owner, now,
                                                 ingress_asn):
            compiled = graph.compiled()
            if not compiled.batch_supported or compiled.order_sensitive:
                return None
            programs.append((instance, compiled, ctx))
        if (len(programs) == 2
                and programs[0][1].shares_state_with(programs[1][1])):
            return None
        return programs
