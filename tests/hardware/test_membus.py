"""Tests for the shared-bandwidth bus model."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware.membus import BandwidthMeter, MemoryBus, _water_fill


# ----------------------------------------------------------------------
# water-filling
# ----------------------------------------------------------------------
def test_water_fill_satisfies_all_when_capacity_ample():
    shares = _water_fill({"a": 1.0, "b": 2.0}, capacity=10.0)
    assert shares == {"a": 1.0, "b": 2.0}


def test_water_fill_splits_evenly_when_scarce():
    shares = _water_fill({"a": 10.0, "b": 10.0}, capacity=4.0)
    assert shares["a"] == pytest.approx(2.0)
    assert shares["b"] == pytest.approx(2.0)


def test_water_fill_redistributes_leftover():
    shares = _water_fill({"small": 1.0, "big": 10.0}, capacity=6.0)
    assert shares["small"] == pytest.approx(1.0)
    assert shares["big"] == pytest.approx(5.0)


@given(st.dictionaries(st.text(min_size=1, max_size=3),
                       st.floats(min_value=0.01, max_value=100.0),
                       min_size=1, max_size=10),
       st.floats(min_value=0.1, max_value=500.0))
def test_water_fill_properties(demands, capacity):
    shares = _water_fill(demands, capacity)
    total = sum(shares.values())
    assert total <= capacity + 1e-6
    for key, share in shares.items():
        assert -1e-9 <= share <= demands[key] + 1e-6
    # Work-conserving: either all demands met or capacity exhausted.
    if sum(demands.values()) <= capacity:
        assert total == pytest.approx(sum(demands.values()))
    else:
        assert total == pytest.approx(capacity)


# ----------------------------------------------------------------------
# MemoryBus
# ----------------------------------------------------------------------
def test_single_transfer_at_demand_rate(sim):
    bus = MemoryBus(sim, 10.0)
    done = []
    bus.start_transfer("a", 400.0, 4.0, lambda: done.append(sim.now))
    sim.run()
    assert done[0] == pytest.approx(100, abs=2)  # 400 B at 4 B/ns


def test_two_transfers_share_capacity(sim):
    bus = MemoryBus(sim, 10.0)
    done = []
    bus.start_transfer("a", 1000.0, 20.0, lambda: done.append(("a", sim.now)))
    bus.start_transfer("b", 1000.0, 20.0, lambda: done.append(("b", sim.now)))
    sim.run()
    # each gets 5 B/ns -> 200 ns
    for _, when in done:
        assert when == pytest.approx(200, abs=3)


def test_completion_frees_capacity_for_the_other(sim):
    bus = MemoryBus(sim, 10.0)
    done = {}
    bus.start_transfer("short", 500.0, 20.0,
                       lambda: done.setdefault("short", sim.now))
    bus.start_transfer("long", 2000.0, 20.0,
                       lambda: done.setdefault("long", sim.now))
    sim.run()
    # short: 100 ns at 5 B/ns; long: 500 B by t=100, then 1500 B at 10 B/ns
    assert done["short"] == pytest.approx(100, abs=3)
    assert done["long"] == pytest.approx(250, abs=4)


def test_cancel_returns_remaining_bytes(sim):
    bus = MemoryBus(sim, 10.0)
    transfer = bus.start_transfer("a", 1000.0, 10.0)
    sim.after(50, lambda: None)
    sim.run(until=50)
    remaining = bus.cancel_transfer(transfer)
    assert remaining == pytest.approx(500.0, abs=15)
    sim.run()
    assert not bus._active


def test_cancel_twice_is_safe(sim):
    bus = MemoryBus(sim, 10.0)
    transfer = bus.start_transfer("a", 100.0, 10.0)
    bus.cancel_transfer(transfer)
    assert bus.cancel_transfer(transfer) == 0.0


def test_tag_cap_limits_aggregate(sim):
    bus = MemoryBus(sim, 100.0)
    bus.set_tag_cap("tenant", 5.0)
    done = []
    bus.start_transfer("tenant", 500.0, 50.0, lambda: done.append(sim.now))
    sim.run()
    assert done[0] == pytest.approx(100, abs=3)  # capped at 5 B/ns


def test_tag_cap_shared_within_tag(sim):
    bus = MemoryBus(sim, 100.0)
    bus.set_tag_cap("t", 10.0)
    done = []
    bus.start_transfer("t", 500.0, 50.0, lambda: done.append(sim.now))
    bus.start_transfer("t", 500.0, 50.0, lambda: done.append(sim.now))
    sim.run()
    for when in done:
        assert when == pytest.approx(100, abs=3)  # 5 B/ns each


def test_uncap_restores_full_rate(sim):
    bus = MemoryBus(sim, 100.0)
    bus.set_tag_cap("t", 1.0)
    bus.set_tag_cap("t", None)
    done = []
    bus.start_transfer("t", 500.0, 50.0, lambda: done.append(sim.now))
    sim.run()
    assert done[0] == pytest.approx(10, abs=2)


def test_consumed_bytes_tracks_progress(sim):
    bus = MemoryBus(sim, 10.0)
    bus.start_transfer("a", 1000.0, 10.0)
    sim.run(until=30)
    assert bus.consumed_bytes("a") == pytest.approx(300.0, abs=15)


def test_bytes_conserved_on_completion(sim):
    bus = MemoryBus(sim, 10.0)
    bus.start_transfer("a", 777.0, 3.0)
    sim.run()
    assert bus.consumed_bytes("a") == pytest.approx(777.0, abs=1)


def test_utilization(sim):
    bus = MemoryBus(sim, 10.0)
    assert bus.utilization() == 0.0
    bus.start_transfer("a", 1e6, 4.0)
    assert bus.utilization() == pytest.approx(0.4)
    bus.start_transfer("b", 1e6, 20.0)
    assert bus.utilization() == pytest.approx(1.0)


def test_meter_windows(sim):
    bus = MemoryBus(sim, 10.0)
    meter = BandwidthMeter(bus, "a")
    bus.start_transfer("a", 1e9, 4.0)
    sim.run(until=100)
    assert meter.sample_gbps() == pytest.approx(4.0, abs=0.2)
    sim.run(until=200)
    assert meter.sample_gbps() == pytest.approx(4.0, abs=0.2)


def test_invalid_parameters_rejected(sim):
    with pytest.raises(ValueError):
        MemoryBus(sim, 0)
    bus = MemoryBus(sim, 10.0)
    with pytest.raises(ValueError):
        bus.start_transfer("a", 0, 1.0)
    with pytest.raises(ValueError):
        bus.start_transfer("a", 10.0, 0)
    with pytest.raises(ValueError):
        bus.set_tag_cap("a", -1.0)


def test_fully_throttled_transfer_waits_for_uncap(sim):
    bus = MemoryBus(sim, 10.0)
    bus.set_tag_cap("t", 0.0)
    done = []
    bus.start_transfer("t", 100.0, 10.0, lambda: done.append(sim.now))
    sim.run(until=1000)
    assert done == []
    bus.set_tag_cap("t", None)
    sim.run(until=2000)
    assert done and done[0] == pytest.approx(1010, abs=3)
