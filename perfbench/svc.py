"""The two live-service workloads: seeded inputs, the verdict oracle, and
the steps the load generator drives.

Both worlds are built from plain numbers first (:func:`transit_inputs`,
:func:`site_inputs`), so the expected answer for every request comes from
the generator's own ground truth and the policies it asked for, never
from the service under test.  :func:`transit_world` and
:func:`site_world` then register those subscribers with the program and
give a ``step(j)`` that serves stream position ``j`` and says whether
the answer was the expected one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

#: Zipf exponent of flow / client popularity.
ZIPF_S = 1.0
#: Requests generated per world; the load generator cycles through them.
STREAM_LEN = 1 << 18

# --------------------------------------------------------------- transit
#: Subscribers at the ISP decision point, one /17 each under 10.0.0.0/8.
TRANSIT_SUBSCRIBERS = 512
#: Every fourth subscriber also filters its outbound traffic.
SRC_GRAPH_EVERY = 4
#: Distinct flows, as a multiple of the decision core's flow-cache size.
TRANSIT_POPULATION_X_CACHE = 8
#: One popularity rank in this many is an owned flow (about 5% of flows
#: and, with the fixed rank offset, of requests).
OWNED_EVERY = 20
OWNED_RANK = 10

TCP, UDP = 6, 17
UNOWNED_PORTS = (80, 443, 53, 123, 25, 23, 8080)


def zipf_stream(rng: np.random.Generator, population: int,
                length: int) -> np.ndarray:
    """``length`` draws of popularity ranks ``0..population-1``."""
    weights = 1.0 / np.arange(1, population + 1) ** ZIPF_S
    cdf = np.cumsum(weights)
    idx = np.searchsorted(cdf, rng.random(length) * cdf[-1], side="right")
    return np.minimum(idx, population - 1)


def subscriber_base(i: int) -> int:
    return (10 << 24) | (i << 15)


def transit_owner(addr: int) -> Optional[int]:
    """The subscriber whose /17 holds ``addr`` (by construction)."""
    return (addr >> 15) & 0x1FF if addr >> 24 == 10 else None


def transit_reason(src: int, dst: int, proto: int, dport: int) -> str:
    """Oracle: the verdict reason the subscribers' policies call for.

    Subscriber ``i`` drops inbound UDP and inbound TCP/23; when
    ``i % SRC_GRAPH_EVERY == 0`` it also drops its own outbound TCP/25.
    Flows touching no subscriber take the direct path.
    """
    so, do = transit_owner(src), transit_owner(dst)
    if so is None and do is None:
        return "direct"
    if (so is not None and so % SRC_GRAPH_EVERY == 0
            and proto == TCP and dport == 25):
        return "filtered"
    if do is not None and (proto == UDP or (proto == TCP and dport == 23)):
        return "filtered"
    return "processed"


@dataclass
class TransitInputs:
    #: flow index of each stream position
    stream: list[int]
    #: per stream position: (src, dst, Protocol, dport, expected reason)
    requests: list[tuple]


def transit_inputs(seed: int, population: Optional[int] = None,
                   stream_len: int = STREAM_LEN) -> TransitInputs:
    from repro.net import Protocol
    from repro.service.core import FLOW_CACHE_CAPACITY

    rng = np.random.default_rng([seed, 1])
    n = population or TRANSIT_POPULATION_X_CACHE * FLOW_CACHE_CAPACITY
    flows = []
    for rank in range(n):
        q = rank // OWNED_EVERY
        if rank % OWNED_EVERY != OWNED_RANK:
            src = 0xAC10_0000 + int(rng.integers(0, 1 << 20))
            dst = 0x0B00_0000 + int(rng.integers(0, 1 << 24))
            proto = TCP if rng.random() < 0.85 else UDP
            dport = UNOWNED_PORTS[int(rng.integers(0, len(UNOWNED_PORTS)))]
            flows.append((src, dst, proto, dport))
            continue
        # which stages a flow runs is fixed by its rank, so a flow's cost
        # does not move with the seed; only addresses and owners do
        drop, via_src = q % 4 == 0, q % 5 == 1
        owner = SRC_GRAPH_EVERY * int(
            rng.integers(0, TRANSIT_SUBSCRIBERS // SRC_GRAPH_EVERY))
        if via_src and not (drop or q % 3 == 0):
            owner += int(rng.integers(1, SRC_GRAPH_EVERY))
        host = subscriber_base(owner) + int(rng.integers(1, 1 << 15))
        other = 0xAC10_0000 + int(rng.integers(0, 1 << 20))
        if via_src:
            src, dst = host, other
            proto, dport = TCP, (25 if drop else (80, 443)[q % 2])
        else:
            src, dst = other, host
            if drop:
                proto, dport = (UDP, 53) if q % 8 == 0 else (TCP, 23)
            else:
                proto, dport = TCP, (80, 443, 8080)[q % 3]
        flows.append((src, dst, proto, dport))
    protos = {TCP: Protocol.TCP, UDP: Protocol.UDP}
    per_flow = [(src, dst, protos[proto], dport,
                 transit_reason(src, dst, proto, dport))
                for src, dst, proto, dport in flows]
    stream = zipf_stream(rng, n, stream_len).tolist()
    return TransitInputs(stream=stream,
                         requests=[per_flow[f] for f in stream])


def transit_world(inputs: TransitInputs) -> Callable[[int], bool]:
    """Register every subscriber with a fresh facade; returns the step."""
    from repro.core import ComponentGraph, NetworkUser
    from repro.core.components import HeaderFilter, HeaderMatch
    from repro.core.device import DeviceContext
    from repro.net import Prefix, Protocol
    from repro.net.topology import ASRole
    from repro.service import ServiceFacade

    tcp, udp = Protocol.TCP, Protocol.UDP
    facade = ServiceFacade(context=DeviceContext(
        asn=64500, role=ASRole.TRANSIT, local_prefix=Prefix(0, 0)))
    for i in range(TRANSIT_SUBSCRIBERS):
        user = NetworkUser(f"sub-{i}",
                           prefixes=[Prefix(subscriber_base(i), 17)])
        inbound = ComponentGraph(f"in:{user.user_id}").chain(
            HeaderFilter("udp", HeaderMatch(proto=udp)),
            HeaderFilter("telnet", HeaderMatch(proto=tcp, dport=23)))
        outbound = None
        if i % SRC_GRAPH_EVERY == 0:
            outbound = ComponentGraph(f"out:{user.user_id}").chain(
                HeaderFilter("smtp", HeaderMatch(proto=tcp, dport=25)))
        facade.subscribe(user, src_graph=outbound, dst_graph=inbound)

    stream = inputs.requests
    check = facade.check

    def step(j: int) -> bool:
        src, dst, proto, dport, reason = stream[j]
        return check(src, dst, proto=proto, dport=dport).reason == reason

    return step


# ------------------------------------------------------------ protected site
SITE_NET = 0xCB00_7100          # 203.0.113.0/24
SITE_ADDR = SITE_NET + 80
ISPS = 64                       # client networks, one /16 each
SUBSCRIBER_ISP_EVERY = 4        # these ISPs quarantine two /24s each
QUARANTINED_EVERY = 64          # legit clients inside a quarantined /24
LEGIT_CLIENTS = 16_384
ATTACK_NETS = 64                # attacker /24s
ATTACKERS_PER_NET = 64
ATTACK_SHARE = 0.3
#: the site swaps in a new blocklist before every this-many requests
SWAP_EVERY = 1000
BLOCKLIST_SIZE = 8
OK_STATUS, BLOCKED_STATUS = "200 OK", "403 Forbidden"


def isp_base(j: int) -> int:
    return (100 << 24) | ((64 + j) << 16)


def dotted(addr: int) -> str:
    return f"{addr >> 24}.{(addr >> 16) & 255}.{(addr >> 8) & 255}.{addr & 255}"


@dataclass
class SiteInputs:
    #: subscriber ISP index -> its quarantined /24s (as addr >> 8)
    quarantine: dict[int, list[int]]
    #: attacker /24s (as addr >> 8), in blocklist rotation order
    attack_nets: list[int]
    #: client address of each stream position
    stream: list[int]
    #: per stream position: (WSGI environ, expected status line)
    requests: list[tuple] = field(default_factory=list)

    def blocklist(self, epoch: int) -> list[int]:
        n = len(self.attack_nets)
        return [self.attack_nets[(3 * epoch + k) % n]
                for k in range(BLOCKLIST_SIZE)]

    def expected_status(self, j: int) -> str:
        """Oracle: a client is refused when its own ISP quarantined its
        /24 (source stage) or the site's blocklist in force for request
        ``j`` holds it (destination stage)."""
        net = self.stream[j] >> 8
        if any(net in nets for nets in self.quarantine.values()):
            return BLOCKED_STATUS
        if net in self.blocklist(j // SWAP_EVERY):
            return BLOCKED_STATUS
        return OK_STATUS


def site_inputs(seed: int, stream_len: int = STREAM_LEN,
                legit_clients: int = LEGIT_CLIENTS) -> SiteInputs:
    rng = np.random.default_rng([seed, 2])
    subscribers = list(range(0, ISPS, SUBSCRIBER_ISP_EVERY))
    others = [j for j in range(ISPS) if j % SUBSCRIBER_ISP_EVERY]
    quarantine = {
        j: [(isp_base(j) >> 8) + int(x)
            for x in rng.choice(256, size=2, replace=False)]
        for j in subscribers}
    taken = {n for nets in quarantine.values() for n in nets}

    def free_net(isps: list[int]) -> int:
        while True:
            net = (isp_base(isps[int(rng.integers(0, len(isps)))]) >> 8) + int(
                rng.integers(0, 256))
            if net not in taken:
                return net

    # whether a client's ISP runs a source stage, and whether the client
    # is quarantined, is fixed by its popularity rank (attack nets: by
    # index), so the cost of the mix does not move with the seed
    nets: list[int] = []
    for k in range(ATTACK_NETS):
        nets.append(free_net(subscribers if k % SUBSCRIBER_ISP_EVERY == 0
                             else others))
        taken.add(nets[-1])
    attackers = [(net << 8) + int(h) for net in nets
                 for h in rng.choice(np.arange(1, 255), ATTACKERS_PER_NET,
                                     replace=False)]
    legit = []
    for rank in range(legit_clients):
        if rank % QUARANTINED_EVERY == QUARANTINED_EVERY // 2:
            nets_of = quarantine[subscribers[int(rng.integers(
                0, len(subscribers)))]]
            net = nets_of[int(rng.integers(0, 2))]
        else:
            net = free_net(subscribers if rank % SUBSCRIBER_ISP_EVERY == 0
                           else others)
        legit.append((net << 8) + int(rng.integers(1, 255)))
    popular = zipf_stream(rng, legit_clients, stream_len)
    attack = rng.random(stream_len) < ATTACK_SHARE
    who = rng.integers(0, len(attackers), stream_len)
    stream = [attackers[int(w)] if a else legit[int(p)]
              for a, w, p in zip(attack, who, popular)]
    inputs = SiteInputs(quarantine=quarantine, attack_nets=nets,
                        stream=stream)
    environs = {addr: {"REMOTE_ADDR": dotted(addr), "REQUEST_METHOD": "GET",
                       "PATH_INFO": "/"} for addr in set(stream)}
    inputs.requests = [(environs[addr], inputs.expected_status(j))
                       for j, addr in enumerate(stream)]
    return inputs


def site_graph(inputs: SiteInputs, epoch: int):
    from repro.core import ComponentGraph
    from repro.core.components import HeaderFilter, HeaderMatch
    from repro.net import Prefix

    return ComponentGraph(f"site-blocklist-{epoch}").chain(*(
        HeaderFilter(f"block{k}", HeaderMatch(src_prefix=Prefix(net << 8, 24)))
        for k, net in enumerate(inputs.blocklist(epoch))))


def _app(environ, start_response):
    start_response(OK_STATUS, [("Content-Type", "text/plain")])
    return [b"ok\n"]


@dataclass
class SiteWorld:
    step: Callable[[int], bool]
    #: swap_policy call-to-return times, seconds
    swap_s: list[float]
    #: responses seen, by status line (filled only when counting)
    statuses: dict[str, int]


def site_world(inputs: SiteInputs, count_statuses: bool = False
               ) -> SiteWorld:
    """The protected site behind the WSGI middleware, plus its step."""
    from repro.core import ComponentGraph, NetworkUser
    from repro.core.components import PrefixBlacklist
    from repro.net import Prefix
    from repro.service import (ServiceFacade, TrafficController,
                               WsgiTrafficMiddleware)

    facade = ServiceFacade()
    facade.subscribe(NetworkUser("site", prefixes=[Prefix(SITE_NET, 24)]),
                     dst_graph=site_graph(inputs, 0))
    for j, nets in inputs.quarantine.items():
        isp = NetworkUser(f"isp-{j}", prefixes=[Prefix(isp_base(j), 16)])
        facade.subscribe(isp, src_graph=ComponentGraph(f"out:isp-{j}").chain(
            PrefixBlacklist("quarantine", [Prefix(n << 8, 24) for n in nets])))
    controller = TrafficController(facade, dotted(SITE_ADDR), dport=80)
    middleware = WsgiTrafficMiddleware(_app, controller)

    stream = inputs.requests
    swap_s: list[float] = []
    statuses: dict[str, int] = {}
    box = [""]
    epoch = [0]

    def start_response(status, headers, exc_info=None):
        box[0] = status

    def step(j: int) -> bool:
        e = j // SWAP_EVERY
        if e != epoch[0]:
            graph = site_graph(inputs, e)
            t = time.perf_counter()
            controller.swap_policy("site", dst_graph=graph)
            swap_s.append(time.perf_counter() - t)
            epoch[0] = e
        environ, expected = stream[j]
        box[0] = ""
        middleware(environ, start_response)
        if count_statuses:
            statuses[box[0]] = statuses.get(box[0], 0) + 1
        return box[0] == expected

    return SiteWorld(step=step, swap_s=swap_s, statuses=statuses)
