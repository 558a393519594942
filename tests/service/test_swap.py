"""Atomic policy hot-swap on the live facade."""

import pytest

from repro.core.components import HeaderFilter, HeaderMatch, PrefixBlacklist
from repro.core.graph import ComponentGraph
from repro.core.ownership import NetworkUser
from repro.errors import ComponentGraphError, DeploymentError
from repro.net import Prefix, Protocol
from repro.obs import scoped
from repro.service.facade import ServiceFacade, TrafficController


def make_facade() -> ServiceFacade:
    facade = ServiceFacade()
    user = NetworkUser("u1", "cust", [Prefix.parse("10.0.0.0/8")])
    graph = ComponentGraph("v1")
    graph.chain(HeaderFilter("drop-udp", HeaderMatch(proto=Protocol.UDP)))
    facade.subscribe(user, src_graph=graph)
    return facade


class TestSwapPolicy:
    def test_swap_changes_the_decision(self):
        facade = make_facade()
        assert not facade.check("10.1.2.3", "4.4.4.4",
                                proto=Protocol.UDP).allowed
        replacement = ComponentGraph("v2")
        replacement.chain(PrefixBlacklist("bl", [Prefix.parse("9.0.0.0/8")]))
        facade.swap_policy("u1", src_graph=replacement)
        assert facade.check("10.1.2.3", "4.4.4.4",
                            proto=Protocol.UDP).allowed

    def test_swap_bumps_generation_and_metrics(self):
        facade = make_facade()
        before = facade.core.generation
        replacement = ComponentGraph("v2")
        replacement.chain(HeaderFilter("f", HeaderMatch(proto=Protocol.TCP)))
        generation = facade.swap_policy("u1", src_graph=replacement)
        assert generation == before + 1 == facade.core.generation
        assert facade._m_policy_swaps.value == 1
        assert facade._m_policy_generation.value == generation

    def test_failed_swap_is_atomic(self):
        """A rejected graph leaves the old policy fully active."""
        facade = make_facade()
        swaps_before = facade._m_policy_swaps.value
        with pytest.raises(ComponentGraphError):
            facade.swap_policy("u1", src_graph=ComponentGraph("empty"))
        assert facade._m_policy_compile_failures.value == 1
        assert facade._m_policy_swaps.value == swaps_before
        # old v1 policy still dropping UDP
        assert not facade.check("10.1.2.3", "4.4.4.4",
                                proto=Protocol.UDP).allowed

    def test_swap_resets_safety_disable(self):
        facade = make_facade()
        instance = facade.core.services["u1"]
        instance.disabled_for_violation = True
        replacement = ComponentGraph("v2")
        replacement.chain(HeaderFilter("f", HeaderMatch(proto=Protocol.UDP)))
        facade.swap_policy("u1", src_graph=replacement)
        assert not instance.disabled_for_violation

    def test_unknown_user_and_empty_swap_are_rejected(self):
        facade = make_facade()
        graph = ComponentGraph("g")
        graph.chain(HeaderFilter("f", HeaderMatch(proto=Protocol.UDP)))
        with pytest.raises(DeploymentError):
            facade.swap_policy("nobody", src_graph=graph)
        with pytest.raises(DeploymentError):
            facade.swap_policy("u1")

    def test_controller_delegates(self):
        facade = make_facade()
        controller = TrafficController(facade, "4.4.4.4",
                                       proto=Protocol.UDP, dport=53)
        assert not controller.allow("10.1.2.3", now=0.0).allowed
        replacement = ComponentGraph("v2")
        replacement.chain(HeaderFilter("f", HeaderMatch(proto=Protocol.TCP)))
        generation = controller.swap_policy("u1", src_graph=replacement)
        assert generation == facade.core.generation
        assert controller.allow("10.1.2.3", now=0.0).allowed


class TestGenerationGauge:
    def test_gauge_follows_every_mutator(self):
        """``service.policy.generation`` reads ``core.generation`` after
        each facade mutator, not only after a swap."""
        with scoped() as reg:
            facade = make_facade()  # subscribe

            def gauge():
                return reg.snapshot()["service.policy.generation"]

            assert gauge() == facade.core.generation == 1
            facade.set_active("u1", False)
            assert gauge() == facade.core.generation == 2
            replacement = ComponentGraph("v2")
            replacement.chain(HeaderFilter("f", HeaderMatch(
                proto=Protocol.TCP)))
            facade.swap_policy("u1", src_graph=replacement)
            assert gauge() == facade.core.generation == 3
            facade.uninstall("u1")
            assert gauge() == facade.core.generation == 4
