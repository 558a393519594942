"""Self-healing behaviour: crashed devices, watchdog detection,
anti-entropy re-install, fail-open/fail-closed policies, and control-plane
failover under injected faults (DESIGN.md: failure model & recovery).
"""


from repro.core import (
    ComponentGraph,
    DeploymentScope,
    NumberAuthority,
    Tcsp,
    TrafficControlService,
)
from repro.core.components import HeaderFilter, HeaderMatch
from repro.net import (
    Fault,
    FaultInjector,
    FaultKind,
    FaultPlan,
    Network,
    Packet,
    Protocol,
    TopologyBuilder,
)


def drop_udp_factory(device_ctx):
    g = ComponentGraph("drop-udp")
    g.add(HeaderFilter("f", HeaderMatch(proto=Protocol.UDP)))
    return g


def build_world(n_isps=1, seed=1):
    net = Network(TopologyBuilder.hierarchical(2, 2, 4, seed=seed))
    authority = NumberAuthority()
    tcsp = Tcsp("TCSP", authority, net)
    ases = net.topology.as_numbers
    chunk = max(1, len(ases) // n_isps)
    nmses = []
    for i in range(n_isps):
        part = ases[i * chunk:] if i == n_isps - 1 else ases[i * chunk:(i + 1) * chunk]
        nmses.append(tcsp.contract_isp(f"isp-{i}", part))
    victim_asn = net.topology.stub_ases[0]
    prefix = net.topology.prefix_of(victim_asn)
    authority.record_allocation(prefix, "acme")
    user, cert = tcsp.register_user("acme", [prefix])
    svc = TrafficControlService(tcsp, user, cert, home_nms=nmses[0])
    return net, tcsp, nmses, svc, victim_asn


class TestCrashSemantics:
    def _deployed_device(self, fail_policy="fail-open"):
        net, tcsp, nmses, svc, victim_asn = build_world()
        svc.deploy(DeploymentScope.stub_borders(),
                   dst_graph_factory=drop_udp_factory)
        device = nmses[0].devices[victim_asn]
        device.fail_policy = fail_policy
        victim = net.add_host(victim_asn)
        attacker = net.add_host(net.topology.stub_ases[1])
        pkt = Packet.udp(attacker.address, victim.address)
        return net, nmses[0], device, pkt

    def test_crashed_fail_open_skips_redirect(self):
        net, nms, device, pkt = self._deployed_device("fail-open")
        assert device.wants(pkt)
        device.crash()
        assert not device.wants(pkt)  # traffic takes the unfiltered path

    def test_crashed_fail_closed_drops_owned_traffic(self):
        net, nms, device, pkt = self._deployed_device("fail-closed")
        device.crash()
        assert device.wants(pkt)  # owned traffic still redirected...
        assert device.process(pkt, 0.0, None) is None  # ...and dropped
        assert device.dropped == 1

    def test_restart_wipes_services(self):
        net, nms, device, pkt = self._deployed_device()
        assert device.services
        device.crash()
        device.restart()
        assert device.services == {}  # Sec. 4.5
        assert not device.crashed
        assert not device.wants(pkt)


class TestWatchdogAntiEntropy:
    def test_reinstalls_after_wiped_restart(self):
        net, tcsp, nmses, svc, victim_asn = build_world()
        svc.deploy(DeploymentScope.stub_borders(),
                   dst_graph_factory=drop_udp_factory)
        nms = nmses[0]
        nms.start_watchdog(interval=0.1)
        rules_before = nms.rule_count()
        device = nms.devices[victim_asn]
        net.sim.schedule_at(0.3, device.crash)
        net.sim.schedule_at(0.5, device.restart)
        net.run(until=1.0)
        assert nms.devices_seen_down >= 1
        assert nms.reconciliations == 1
        assert nms.services_reinstalled == 1
        assert "acme" in device.services
        assert nms.rule_count() == rules_before

    def test_reconciled_instance_keeps_desired_activation(self):
        net, tcsp, nmses, svc, victim_asn = build_world()
        svc.deploy(DeploymentScope.stub_borders(),
                   dst_graph_factory=drop_udp_factory)
        svc.set_active(False)
        nms = nmses[0]
        nms.start_watchdog(interval=0.1)
        device = nms.devices[victim_asn]
        net.sim.schedule_at(0.3, device.crash)
        net.sim.schedule_at(0.5, device.restart)
        net.run(until=1.0)
        # the re-installed service honours the user's last set_active
        assert device.services["acme"].active is False

    def test_crash_restart_between_ticks_still_detected(self):
        net, tcsp, nmses, svc, victim_asn = build_world()
        svc.deploy(DeploymentScope.stub_borders(),
                   dst_graph_factory=drop_udp_factory)
        nms = nmses[0]
        nms.start_watchdog(interval=0.5)
        device = nms.devices[victim_asn]
        # down and back up entirely inside one heartbeat interval
        net.sim.schedule_at(0.6, device.crash)
        net.sim.schedule_at(0.7, device.restart)
        net.run(until=2.0)
        assert nms.services_reinstalled == 1  # restart counter caught it

    def test_stop_watchdog_stops_the_heartbeat(self):
        net, tcsp, nmses, svc, victim_asn = build_world()
        nms = nmses[0]
        nms.start_watchdog(interval=0.1)
        net.run(until=0.55)
        assert nms.watchdog_ticks == 5
        nms.stop_watchdog()
        net.run(until=2.0)
        assert nms.watchdog_ticks == 5

    def test_filtering_resumes_end_to_end(self):
        net, tcsp, nmses, svc, victim_asn = build_world()
        svc.deploy(DeploymentScope.stub_borders(),
                   dst_graph_factory=drop_udp_factory)
        nms = nmses[0]
        nms.start_watchdog(interval=0.1)
        device = nms.devices[victim_asn]
        victim = net.add_host(victim_asn)
        attacker = net.add_host(net.topology.stub_ases[1])
        device.crash()
        device.restart()  # wiped; watchdog has not run yet
        net.sim.schedule_at(
            0.5, lambda: attacker.send(Packet.udp(attacker.address,
                                                  victim.address)))
        net.run(until=1.0)
        assert victim.received_packets == 0  # reconciled before the packet


class TestControlPlaneFailover:
    def test_tcsp_outage_fails_over_after_retries(self):
        net, tcsp, nmses, svc, victim_asn = build_world()
        tcsp.reachable = False
        result = svc.deploy(DeploymentScope.stub_borders(),
                            dst_graph_factory=drop_udp_factory)
        assert svc.fallback_used == 1
        assert set(result["isp-0"]) == set(net.topology.stub_ases)
        assert tcsp.channel.stats.exhausted == 1
        assert tcsp.channel.stats.retries == tcsp.channel.policy.attempts - 1

    def test_peer_forwarding_converges_under_message_loss(self):
        """The E7 peer-forwarding path still reaches full coverage when a
        lossy window drops control messages (retries absorb the loss)."""
        net, tcsp, nmses, svc, victim_asn = build_world(n_isps=2)
        plan = FaultPlan([Fault(FaultKind.MESSAGE_LOSS, 0.0, 10.0,
                                param=0.4)])
        injector = FaultInjector(plan, net, tcsp=tcsp, nmses=nmses, seed=1)
        injector.arm()
        net.run(until=0.01)  # activate the loss window
        tcsp.reachable = False
        result = svc.deploy(DeploymentScope.stub_borders(),
                            dst_graph_factory=drop_udp_factory)
        configured = {a for asns in result.values() for a in asns}
        assert configured == set(net.topology.stub_ases)
        assert injector.messages_dropped > 0  # the loss really happened
        retries = sum(n.channel.stats.retries for n in nmses)
        assert retries > 0  # and retries absorbed it

    def test_partitioned_relay_recorded_and_resynced(self):
        net, tcsp, nmses, svc, victim_asn = build_world(n_isps=2)
        svc.deploy(DeploymentScope.stub_borders(),
                   dst_graph_factory=drop_udp_factory)
        nmses[1].partitioned = True
        svc.set_active(False)
        assert tcsp.nms_relay_failures == 1
        assert ("isp-1", "set_active") in tcsp.undelivered
        # isp-0 already deactivated; isp-1 still has the stale state
        stale = [d for d in nmses[1].devices.values()
                 if "acme" in d.services and d.services["acme"].active]
        assert stale
        nmses[1].partitioned = False
        assert tcsp.resync() == 1
        assert all(not d.services["acme"].active
                   for d in nmses[1].devices.values()
                   if "acme" in d.services)
