"""Distributed firewall on the traffic control service.

Sec. 4.3: "Attacks based on protocol misuse like e.g. sending ICMP
unreachable or TCP reset messages to tear down TCP connections can also be
filtered out.  Without such a distributed traffic control service,
worldwide filtering of illegitimate packets is almost impossible due to
the many network operators involved."

The firewall runs in the *destination-owner* stage: the owner of the
protected servers filters what may reach them, anywhere in the network —
"distributed firewall-like filtering" (Sec. 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.components import (
    HeaderFilter,
    HeaderMatch,
    LoggerComponent,
    RateLimiterComponent,
)
from repro.core.device import DeviceContext
from repro.core.deployment import DeploymentScope
from repro.core.graph import ComponentGraph
from repro.core.service import TrafficControlService
from repro.net.packet import ICMPType, Protocol, TCPFlags

__all__ = ["FirewallRule", "DistributedFirewallApp"]


@dataclass(frozen=True)
class FirewallRule:
    """A named drop rule over a header match."""

    name: str
    match: HeaderMatch

    @classmethod
    def block_teardown_rst(cls) -> "FirewallRule":
        """Drop forged TCP RSTs aimed at the owner's hosts."""
        return cls("block-rst", HeaderMatch(proto=Protocol.TCP, flags_any=TCPFlags.RST))

    @classmethod
    def block_icmp_unreachable(cls) -> "FirewallRule":
        """Drop ICMP host-unreachable teardown messages."""
        return cls("block-icmp-unreach",
                   HeaderMatch(proto=Protocol.ICMP, icmp_type=ICMPType.HOST_UNREACHABLE))

    @classmethod
    def drop_offservice_udp(cls, service_ports: Sequence[int]) -> "FirewallRule":
        """Drop UDP aimed at any port but the owner's service ports (the
        answer to a UDP flood)."""
        return cls("drop-offservice-udp",
                   HeaderMatch(proto=Protocol.UDP,
                               dport_not_in=tuple(sorted(service_ports))))

    @classmethod
    def block_port(cls, dport: int, proto: Protocol = Protocol.UDP) -> "FirewallRule":
        return cls(f"block-{proto.name.lower()}-{dport}",
                   HeaderMatch(proto=proto, dport=dport))


class DistributedFirewallApp:
    """Deploy a rule set (plus optional rate limit and logging) worldwide."""

    def __init__(self, service: TrafficControlService,
                 rules: Sequence[FirewallRule],
                 rate_limit_bps: Optional[float] = None,
                 with_logging: bool = False) -> None:
        self.service = service
        self.rules = list(rules)
        self.rate_limit_bps = rate_limit_bps
        self.with_logging = with_logging
        self._graphs: list[ComponentGraph] = []

    def graph_factory(self, device_ctx: DeviceContext) -> ComponentGraph:
        graph = ComponentGraph(f"firewall:{self.service.user.user_id}")
        components: list = []
        if self.with_logging:
            # observe everything, including packets later filtered
            components.append(LoggerComponent("fw-log"))
        components += [HeaderFilter(rule.name, rule.match) for rule in self.rules]
        if self.rate_limit_bps is not None:
            components.append(RateLimiterComponent("fw-rate-limit", self.rate_limit_bps))
        graph.chain(*components)
        self._graphs.append(graph)
        return graph

    def deploy(self, scope: Optional[DeploymentScope] = None) -> dict[str, list[int]]:
        """Install in the destination-owner stage under the given scope."""
        scope = scope or DeploymentScope.everywhere()
        return self.service.deploy(scope, dst_graph_factory=self.graph_factory)

    def dropped(self) -> int:
        """Packets dropped by this firewall across all devices."""
        total = 0
        for graph in self._graphs:
            total += graph.packets_dropped
        return total
