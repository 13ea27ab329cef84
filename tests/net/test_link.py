"""Tests for the serializing link."""

import pytest

from repro.net.link import LINK_DROP, Link
from repro.obs.ledger import OpLedger
from repro.workloads.memcached import memcached_app
from repro.workloads.base import Request


def _request(nbytes=0):
    app = memcached_app()
    request = Request(app, 0, 1000)
    request.bytes_in = nbytes
    return request


def test_serialization_time_scales_with_bytes(sim):
    link = Link(sim, "l", gbps=100.0, propagation_ns=0)
    # 125 bytes at 100 Gbps = 1000 bits / 100 bits-per-ns = 10 ns
    assert link.serialization_ns(125) == 10
    assert link.serialization_ns(1250) == 100
    # Tiny packets still occupy the wire for at least a nanosecond.
    assert link.serialization_ns(1) == 1


def test_delivery_after_serialization_and_propagation(sim):
    link = Link(sim, "l", gbps=100.0, propagation_ns=500)
    arrived = []
    link.send(_request(), 125, lambda r: arrived.append(sim.now))
    sim.run()
    assert arrived == [510]


def test_packets_queue_behind_the_wire(sim):
    link = Link(sim, "l", gbps=100.0, propagation_ns=0)
    arrived = []
    for _ in range(3):
        link.send(_request(), 125, lambda r: arrived.append(sim.now))
    sim.run()
    # Each packet serializes for 10 ns *after* the previous one.
    assert arrived == [10, 20, 30]


def test_validation():
    with pytest.raises(ValueError):
        Link(None, "l", gbps=0)
    with pytest.raises(ValueError):
        Link(None, "l", propagation_ns=-1)


def test_inject_drop_fires_on_drop_callback(sim):
    dropped = []
    link = Link(sim, "l", on_drop=dropped.append)
    link.inject = lambda request, nbytes: LINK_DROP
    request = _request()
    assert not link.send(request, 100, lambda r: None)
    assert dropped == [request]
    assert link.dropped == 1
    assert link.tx_packets == 0


def test_inject_delay_postpones_delivery(sim):
    link = Link(sim, "l", gbps=100.0, propagation_ns=0)
    link.inject = lambda request, nbytes: 5_000
    arrived = []
    link.send(_request(), 125, lambda r: arrived.append(sim.now))
    sim.run()
    assert arrived == [5_010]


def test_ledger_charges_link_tx_under_net_domain(sim):
    ledger = OpLedger(sim=sim)
    link = Link(sim, "l", gbps=100.0, propagation_ns=0, ledger=ledger)
    link.send(_request(), 125, lambda r: None)
    sim.run()
    assert ledger.op_counts("net")["link_tx"] == 1
    assert ledger.total_ns(domain="net", op="link_tx") == 10


def test_deliveries_fire_in_send_order_at_the_absolute_times(sim):
    """A delivery is a ``post`` (a delay from now) yet lands where an
    absolute ``at(busy_until + propagation + extra)`` put it, and ties
    at one nanosecond break in scheduling order across links and plain
    ``post`` calls."""
    fast = Link(sim, "fast", gbps=100.0, propagation_ns=500)
    slow = Link(sim, "slow", gbps=50.0, propagation_ns=490)
    slow.inject = lambda request, nbytes: None
    fired, expected = [], []

    def send(link, tag):
        link.send(_request(), 125,
                  lambda r: fired.append((tag, sim.now)))
        expected.append((tag, link._busy_until + link.propagation_ns))

    def burst():
        send(fast, "fast-1")        # 10 ns on the wire -> 1_510
        sim.post(510, lambda: fired.append(("post", sim.now)))
        expected.append(("post", 1_510))
        send(slow, "slow-1")        # 20 ns on the wire -> 1_510
        send(fast, "fast-2")        # queued behind fast-1 -> 1_520

    sim.post(1_000, burst)
    sim.run()
    assert fired == expected
    assert fired == [("fast-1", 1_510), ("post", 1_510),
                     ("slow-1", 1_510), ("fast-2", 1_520)]


def test_memoized_serialization_time_matches_the_formula(sim):
    link = Link(sim, "l", gbps=40.0, propagation_ns=0)
    sizes = (1, 64, 125, 1_500, 64, 1)  # the repeats hit the memo
    assert [link.serialization_ns(n) for n in sizes] == \
        [max(1, round(n * 8 / 40.0)) for n in sizes]
