"""Worldwide anti-spoofing deployment — the Sec. 4.3 headline application.

"For stopping a DDoS reflector attack to a specific web site, the owner of
that web site's IP address can, by using our proposed traffic control
system, almost instantly deploy worldwide ingress filtering rules.  These
rules will block all traffic that enters the Internet from customers of a
peripheral ISP and that carries this web site's spoofed IP address."

:class:`AntiSpoofApp` deploys the rule onto adaptive devices through the
service facade; every packet-level user (E2's ``tcs`` cells, the reactive
defender) goes through it.  :func:`antispoof_fluid_filter` is the same
rule in the fluid model, for the E4/E12 deployment sweeps.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.components import SourceAntiSpoof
from repro.core.device import DeviceContext
from repro.core.deployment import DeploymentScope
from repro.core.graph import ComponentGraph
from repro.core.service import TrafficControlService
from repro.net.fluid import Flow, FluidFilter

__all__ = ["AntiSpoofApp", "antispoof_fluid_filter"]


class AntiSpoofApp:
    """Deploy (and manage) anti-spoofing for the service user's prefixes."""

    def __init__(self, service: TrafficControlService) -> None:
        self.service = service

    def graph_factory(self, device_ctx: DeviceContext) -> ComponentGraph:
        """One SourceAntiSpoof component protecting the user's prefixes."""
        graph = ComponentGraph(f"antispoof:{self.service.user.user_id}")
        graph.add(SourceAntiSpoof("anti-spoof", self.service.user.prefixes))
        return graph

    def deploy(self, scope: Optional[DeploymentScope] = None) -> dict[str, list[int]]:
        """Push the rules worldwide — by default to all stub borders, where
        traffic 'enters the Internet'."""
        scope = scope or DeploymentScope.stub_borders()
        # spoofed *sources* are filtered in the source-owner stage: the
        # spoofed address belongs to the user, so the user's stage runs.
        return self.service.deploy(scope, src_graph_factory=self.graph_factory)

    def components(self) -> Iterable[SourceAntiSpoof]:
        """All deployed anti-spoof components (for drop accounting)."""
        for nms in self.service.tcsp.nmses:
            for device in nms.devices.values():
                instance = device.services.get(self.service.user.user_id)
                if instance and instance.src_graph:
                    for comp in instance.src_graph.components():
                        if isinstance(comp, SourceAntiSpoof):
                            yield comp

    def dropped(self) -> int:
        return sum(c.dropped for c in self.components())


def antispoof_fluid_filter(protected_asns: Iterable[int],
                           deployed_asns: Iterable[int]) -> FluidFilter:
    """The fluid-model anti-spoofing filter for E4, E12 and the fluid engine.

    It reproduces :class:`AntiSpoofApp`'s semantics analytically: a spoofed
    flow claiming a protected AS's address dies at its *source AS* whenever
    that stub AS hosts an adaptive device with the rule.
    """
    protected = set(protected_asns)
    deployed = set(deployed_asns)

    class _Fluid:
        def pass_fraction(self, flow: Flow, asn: int, prev_asn, pos: int,
                          path) -> float:
            if (pos == 0 and asn in deployed and flow.spoofed
                    and flow.source_address_asn in protected
                    and flow.src_asn not in protected):
                return 0.0
            return 1.0

    return _Fluid()
