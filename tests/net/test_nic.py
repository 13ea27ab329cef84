"""Tests for the multi-queue NIC: RSS steering and ring accounting."""

import pytest

from repro.net.nic import Nic, NicRxQueue
from repro.obs.ledger import OpLedger
from repro.sim.rng import RngStreams
from repro.workloads.base import Request
from repro.workloads.memcached import memcached_app


def _nic(sim, **kwargs):
    kwargs.setdefault("num_rings", 4)
    return Nic(sim, lambda r: None, **kwargs)


def test_steering_is_deterministic_for_identical_keys(sim):
    a = _nic(sim, rss_key=42)
    b = _nic(sim, rss_key=42)
    mapping_a = [a.ring_for("memcached", c) for c in range(64)]
    mapping_b = [b.ring_for("memcached", c) for c in range(64)]
    assert mapping_a == mapping_b
    # The hash spreads 64 connections over more than one ring.
    assert len(set(mapping_a)) > 1


def test_steering_differs_across_keys(sim):
    a = _nic(sim, rss_key=1)
    b = _nic(sim, rss_key=2)
    assert [a.ring_for("memcached", c) for c in range(64)] != \
        [b.ring_for("memcached", c) for c in range(64)]


def test_seeded_rss_key_is_reproducible():
    key_a = RngStreams(777).stream("net/rss").getrandbits(64)
    key_b = RngStreams(777).stream("net/rss").getrandbits(64)
    key_c = RngStreams(778).stream("net/rss").getrandbits(64)
    assert key_a == key_b
    assert key_a != key_c


def test_flows_are_sticky(sim):
    nic = _nic(sim, rss_key=7)
    first = nic.ring_for("silo", 3)
    for _ in range(10):
        assert nic.ring_for("silo", 3) == first


def test_validation(sim):
    with pytest.raises(ValueError):
        _nic(sim, num_rings=0)


def test_ring_overflow_matches_ledger_accounting(sim):
    """Overflow drops agree between counters, callbacks, and `net:` ops."""
    ledger = OpLedger(sim=sim)
    dropped = []
    app = memcached_app()
    nic = Nic(sim, lambda r: None, num_rings=1, ring_capacity=4,
              nic_ns=600, ledger=ledger, on_drop=dropped.append)
    results = [nic.rx(Request(app, 0, 1000, conn_id=0)) for _ in range(10)]
    assert results == [True] * 4 + [False] * 6
    assert nic.dropped == 6
    assert len(dropped) == 6
    assert ledger.op_counts("net")["nic_drop"] == 6
    sim.run()
    assert nic.received == 4
    assert ledger.op_counts("net")["nic_rx"] == 4
    # Per-packet NIC cost is charged, not just counted.
    assert ledger.total_ns(domain="net", op="nic_rx") == 4 * 600


def test_depth_and_oldest_wait_signals(sim):
    nic = _nic(sim, num_rings=1, nic_ns=500)
    app = memcached_app()
    nic.rx(Request(app, 0, 1000))
    nic.rx(Request(app, 0, 1000))
    assert nic.rings[0].depth == 2
    sim.run(until=400)
    assert nic.oldest_wait_ns(sim.now) == 400
    sim.run()
    assert nic.rings[0].depth == 0
    assert nic.oldest_wait_ns(sim.now) == 0


def test_rx_restamps_arrival_time(sim):
    seen = []
    nic = Nic(sim, seen.append, num_rings=1, nic_ns=600)
    request = Request(memcached_app(), 0, 1000)
    sim.at(100, nic.rx, request)
    sim.run()
    assert seen == [request]
    assert request.arrival_ns == 700


# ----------------------------------------------------------------------
# One RX ring
# ----------------------------------------------------------------------
def test_nic_adds_latency(sim):
    app = memcached_app()
    delivered = []
    nic = NicRxQueue(sim, delivered.append, latency_ns=500)
    request = Request(app, 0, 1000)
    assert nic.client_submit(request)
    sim.run()
    assert delivered[0] is request
    assert request.arrival_ns == 500  # restamped at ring arrival


def test_nic_drops_on_overflow(sim):
    app = memcached_app()
    nic = NicRxQueue(sim, lambda r: None, capacity=2)
    for _ in range(3):
        nic.client_submit(Request(app, 0, 1))
    assert nic.dropped == 1
    assert nic.in_flight == 2
    sim.run()
    assert nic.received == 2


def test_nic_capacity_validated(sim):
    with pytest.raises(ValueError):
        NicRxQueue(sim, lambda r: None, capacity=0)
