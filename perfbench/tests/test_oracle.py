"""The benchmark's expected verdicts agree with the service on small
seeded worlds, and a disagreement is caught."""

from collections import Counter

import svc


def test_transit_oracle_agrees_with_service_facade():
    inputs = svc.transit_inputs(7, population=4000, stream_len=6000)
    reasons = Counter(r[4] for r in inputs.requests)
    assert set(reasons) == {"direct", "processed", "filtered"}
    step = svc.transit_world(inputs)
    assert all(step(j) for j in range(len(inputs.requests)))


def test_transit_oracle_disagreement_is_a_failure():
    inputs = svc.transit_inputs(7, population=4000, stream_len=200)
    j = next(j for j, r in enumerate(inputs.requests) if r[4] == "direct")
    inputs.requests[j] = inputs.requests[j][:4] + ("filtered",)
    step = svc.transit_world(inputs)
    assert not step(j)


def test_site_oracle_agrees_through_middleware_and_swaps():
    inputs = svc.site_inputs(3, stream_len=4000, legit_clients=600)
    statuses = Counter(r[1] for r in inputs.requests)
    assert set(statuses) == {svc.OK_STATUS, svc.BLOCKED_STATUS}
    world = svc.site_world(inputs, count_statuses=True)
    assert all(world.step(j) for j in range(len(inputs.requests)))
    assert len(world.swap_s) == (len(inputs.requests) - 1) // svc.SWAP_EVERY
    assert world.statuses == dict(statuses)


def test_site_expected_status_follows_the_blocklist_in_force():
    inputs = svc.site_inputs(3, stream_len=4000, legit_clients=600)
    quarantined = {n for nets in inputs.quarantine.values() for n in nets}
    net = next(n for n in inputs.blocklist(1)
               if n not in inputs.blocklist(0) and n not in quarantined)
    client = (net << 8) + 7
    inputs.stream[0] = inputs.stream[svc.SWAP_EVERY] = client
    assert inputs.expected_status(0) == svc.OK_STATUS
    assert inputs.expected_status(svc.SWAP_EVERY) == svc.BLOCKED_STATUS
