"""The compiler-registered ``tcs-spec`` defense."""

import dataclasses

from repro.net import Packet
from repro.scenario import preset, run_scenario
from repro.scenario.build import build
from repro.scenario.defenses import names
from repro.scenario.spec import DefenseSpec


def with_defense(defense: DefenseSpec):
    return dataclasses.replace(
        preset("spoofed-flood-ingress").scaled(0.3), defense=defense)


def test_registered():
    assert "tcs-spec" in names()


def test_default_spec_stops_the_spoofed_flood():
    undefended = run_scenario(with_defense(DefenseSpec.of("none")))
    defended = run_scenario(with_defense(DefenseSpec.of("tcs-spec")))
    assert undefended.attack_delivered > 0
    assert defended.attack_delivered == 0
    # off-service-UDP scoping: legitimate traffic untouched
    assert defended.legit_goodput == undefended.legit_goodput
    assert defended.collateral == 0.0
    assert "compiled" in defended.notes


def test_rules_parameter_overrides_the_default_policy():
    # a no-op policy (drop ICMP only) must not stop the UDP flood
    spec = DefenseSpec.of("tcs-spec", rules=[
        {"action": "drop", "proto": "icmp", "label": "icmp-only"}])
    defended = run_scenario(with_defense(spec))
    assert defended.attack_delivered > 0


def test_rules_stay_confined_to_the_victims_traffic():
    """Sec. 4.1: a user controls only the packets it owns, so a rule with
    no destination prefix still never touches other parties' traffic."""
    built = build(with_defense(DefenseSpec.of("tcs-spec", rules=[
        {"action": "drop", "proto": "udp"}])))
    net = built.network
    others = [a for a in net.topology.stub_ases if a != built.victim_asn]
    sender, receiver = net.add_host(others[0]), net.add_host(others[-1])
    for i in range(10):
        net.sim.schedule_at(0.01 * i, sender.send, Packet.udp(
            sender.address, receiver.address, dport=53, size=100,
            kind="bystander"))
    net.run(until=0.5)
    assert receiver.received_by_kind.get("bystander", 0) == 10
