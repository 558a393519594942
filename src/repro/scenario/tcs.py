"""Shared TCS control-plane wiring for scenarios.

Eight experiments used to open with the same boilerplate: create the
number authority, the TCSP, contract one or more ISPs, record the owner's
address allocation, register the owner, and (sometimes) build a
:class:`~repro.core.service.TrafficControlService` — the paper's Sec. 4.1
bootstrap sequence.  :func:`build_tcs_world` is that sequence, once.

ISP contracting matches the two historical shapes exactly: a single NMS
named ``"isp"`` covering every AS (``n_isps=1``), or ``n_isps`` NMSes
named ``"isp-0" .. "isp-{n-1}"`` over contiguous chunks of the AS list
with the remainder on the last one (the E7/E16 shape).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, TYPE_CHECKING

from repro.core import (
    ComponentGraph,
    DeploymentScope,
    DeviceContext,
    NumberAuthority,
    Tcsp,
    TcspReplicaSet,
    TrafficControlService,
)
from repro.core.components import PrefixBlacklist

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.nms import IspNms
    from repro.core.storage import StorageBackend
    from repro.net.network import Network

__all__ = ["TcsWorld", "build_tcs_world", "blacklist_sources"]


@dataclass
class TcsWorld:
    """The control-plane objects one bootstrap produces."""

    net: "Network"
    authority: NumberAuthority
    tcsp: "Tcsp | TcspReplicaSet"
    nmses: list = field(default_factory=list)
    owner: str = "acme"
    owner_asn: int = 0
    prefix: object = None
    user: object = None
    cert: object = None
    service: Optional[TrafficControlService] = None

    @property
    def nms(self) -> "IspNms":
        """The (first) contracted NMS — the whole Internet when n_isps=1."""
        return self.nmses[0]


def build_tcs_world(net: "Network", *, owner: str = "acme",
                    owner_asn: Optional[int] = None, n_isps: int = 1,
                    allocate: bool = True, register: bool = True,
                    service: bool = False,
                    home_nms_index: Optional[int] = None,
                    store: "Optional[StorageBackend]" = None,
                    tcsp_standbys: int = 0) -> TcsWorld:
    """Bootstrap the TCS control plane over an existing network.

    ``owner_asn`` defaults to the first stub AS (the usual victim);
    ``allocate`` records the owner's prefix with the number authority;
    ``register`` additionally creates the owner's user + certificate;
    ``service`` additionally builds the TrafficControlService (homed on
    ``nmses[home_nms_index]`` when given, else un-homed).

    ``store`` selects the control-plane storage backend (default:
    process-local memory, byte-identical to the pre-storage-layer
    bootstrap); ``tcsp_standbys > 0`` runs the TCSP as a
    :class:`~repro.core.tcsp.TcspReplicaSet` with that many warm standbys
    sharing the store, lease loop already started.
    """
    authority = NumberAuthority()
    tcsp: Tcsp | TcspReplicaSet
    if tcsp_standbys > 0:
        replica_set = TcspReplicaSet("TCSP", authority, net, store=store,
                                     n_standbys=tcsp_standbys)
        replica_set.start()
        tcsp = replica_set
    else:
        tcsp = Tcsp("TCSP", authority, net, store=store)
    ases = net.topology.as_numbers
    if n_isps <= 1:
        nmses = [tcsp.contract_isp("isp", ases)]
    else:
        chunk = max(1, len(ases) // n_isps)
        nmses = []
        for i in range(n_isps):
            part = (ases[i * chunk:] if i == n_isps - 1
                    else ases[i * chunk:(i + 1) * chunk])
            nmses.append(tcsp.contract_isp(f"isp-{i}", part))
    if owner_asn is None:
        owner_asn = net.topology.stub_ases[0]
    prefix = net.topology.prefix_of(owner_asn)
    if allocate:
        authority.record_allocation(prefix, owner)
    world = TcsWorld(net=net, authority=authority, tcsp=tcsp, nmses=nmses,
                     owner=owner, owner_asn=int(owner_asn), prefix=prefix)
    if allocate and register:
        world.user, world.cert = tcsp.register_user(owner, [prefix])
        if service:
            home = (nmses[home_nms_index]
                    if home_nms_index is not None else None)
            world.service = TrafficControlService(tcsp, world.user,
                                                  world.cert, home_nms=home)
    return world


def blacklist_sources(service: TrafficControlService,
                      asns: Iterable[int]) -> dict[str, list[int]]:
    """Source blacklisting near the sources (Sec. 4.2), as E2 and E14 use it.

    The device of each AS in ``asns`` drops the owner's traffic whose
    source lies in that AS's own prefix.  The rule runs in the
    destination-owner stage, so nobody else's traffic is touched.
    """
    def graph_factory(device_ctx: DeviceContext) -> ComponentGraph:
        graph = ComponentGraph(f"blacklist:{service.user.user_id}")
        graph.add(PrefixBlacklist("src-blacklist", [device_ctx.local_prefix]))
        return graph

    return service.deploy(DeploymentScope.explicit(asns),
                          dst_graph_factory=graph_factory)
