"""Gauge time series: deterministic ticking, windows, counter export."""

import pytest

from repro.obs.timeseries import GaugeSeries
from repro.sim.engine import Simulator


def test_probes_sample_on_the_tick():
    sim = Simulator()
    gauges = GaugeSeries(sim, tick_ns=100)
    state = {"depth": 0}
    gauges.add_probe("depth", lambda: state["depth"])
    gauges.start()
    sim.at(150, lambda: state.update(depth=7))
    sim.run(until=400)
    assert gauges.samples["depth"] == [(100, 0.0), (200, 7.0),
                                       (300, 7.0), (400, 7.0)]


def test_duplicate_probe_name_rejected():
    gauges = GaugeSeries(Simulator(), tick_ns=10)
    gauges.add_probe("x", lambda: 0)
    with pytest.raises(ValueError):
        gauges.add_probe("x", lambda: 1)
    with pytest.raises(ValueError):
        GaugeSeries(Simulator(), tick_ns=0)


def test_start_is_idempotent():
    sim = Simulator()
    gauges = GaugeSeries(sim, tick_ns=100)
    gauges.add_probe("x", lambda: 1)
    gauges.start()
    gauges.start()  # second call must not double the tick rate
    sim.run(until=300)
    assert len(gauges.samples["x"]) == 3


def test_begin_measurement_drops_warmup_samples_keeps_ticking():
    sim = Simulator()
    gauges = GaugeSeries(sim, tick_ns=100)
    gauges.add_probe("x", lambda: 1)
    gauges.start()
    sim.run(until=250)
    gauges.begin_measurement()
    sim.run(until=500)
    assert [ts for ts, _ in gauges.samples["x"]] == [300, 400, 500]


def test_sample_cap_bounds_memory():
    sim = Simulator()
    gauges = GaugeSeries(sim, tick_ns=10, max_samples=3)
    gauges.add_probe("x", lambda: 1)
    gauges.start()
    sim.run(until=100)
    assert len(gauges.samples["x"]) == 3
    assert gauges.samples_dropped == 7


def test_names_keep_registration_order():
    gauges = GaugeSeries(Simulator(), tick_ns=100)
    gauges.add_probe("x", lambda: 1)
    gauges.add_probe("empty", lambda: 0)
    assert list(gauges.samples) == ["x", "empty"]


def test_chrome_counter_events():
    sim = Simulator()
    gauges = GaugeSeries(sim, tick_ns=1_000)
    gauges.add_probe("queue", lambda: 5)
    gauges.start()
    sim.run(until=2_000)
    events = gauges.chrome_events(pid=3)
    assert events[0] == {"ph": "M", "pid": 3, "name": "process_name",
                         "args": {"name": "gauges"}}
    counters = [e for e in events if e["ph"] == "C"]
    assert [e["ts"] for e in counters] == [1.0, 2.0]
    assert all(e["pid"] == 3 and e["args"]["value"] == 5.0
               for e in counters)
