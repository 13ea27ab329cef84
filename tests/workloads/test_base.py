"""Tests for apps, requests, and the open-loop sources."""

from array import array

import pytest

from repro.sched.base import ColocationSystem
from repro.sim.units import MS
from repro.workloads.base import (
    App,
    AppKind,
    BurstySource,
    OpenLoopSource,
    Request,
)


def make_app(kind=AppKind.LATENCY):
    return App("test", kind, mean_service_ns=1000)


def test_enqueue_and_pop_fifo():
    app = make_app()
    r1 = Request(app, 0, 100)
    r2 = Request(app, 5, 100)
    app.queue.append(r1)
    app.queue.append(r2)
    assert app.pop_request() is r1
    assert app.pop_request() is r2
    assert app.pop_request() is None


def test_oldest_wait_tracks_head():
    app = make_app()
    app.queue.append(Request(app, 100, 50))
    assert app.oldest_wait_ns(250) == 150
    assert make_app().oldest_wait_ns(250) == 0


def test_complete_records_latency(sim, machine, rngs):
    system = ColocationSystem(sim, machine, rngs)
    app = make_app()
    request = Request(app, 100, 50)
    sim.run(until=400)
    system.end_service(request)
    assert app.completed.value == 1
    assert app.latency.samples == array("q", [300])


def test_reset_measurements_preserves_queue():
    app = make_app()
    app.queue.append(Request(app, 0, 10))
    app.completed.add(1)
    app.latency.record(100)
    app.reset_measurements()
    assert app.completed.value == 0
    assert app.latency.count == 0
    assert len(app.queue) == 1  # in-flight state kept


def test_open_loop_rate_approximately_respected(sim, rngs):
    app = make_app()
    submitted = []
    OpenLoopSource(sim, app, submitted.append, rate_mops=2.0,
                   service_sampler=lambda: 500,
                   rng=rngs.stream("arr"))
    sim.run(until=10 * MS)
    # 2 Mops for 10 ms -> ~20000 requests
    assert len(submitted) == pytest.approx(20000, rel=0.1)


def test_open_loop_zero_rate_generates_nothing(sim, rngs):
    app = make_app()
    submitted = []
    OpenLoopSource(sim, app, submitted.append, 0.0,
                   lambda: 500, rngs.stream("arr"))
    sim.run(until=1 * MS)
    assert submitted == []


def test_open_loop_stop_ns(sim, rngs):
    app = make_app()
    submitted = []
    OpenLoopSource(sim, app, submitted.append, 1.0,
                   lambda: 500, rngs.stream("arr"),
                   stop_ns=1 * MS)
    sim.run(until=5 * MS)
    assert all(r.arrival_ns <= 1 * MS for r in submitted)


def test_open_loop_negative_rate_rejected(sim, rngs):
    with pytest.raises(ValueError):
        OpenLoopSource(sim, make_app(), lambda r: None, -1.0,
                       lambda: 500, rngs.stream("arr"))


def test_connection_ids_cycle(sim, rngs):
    app = make_app()
    submitted = []
    OpenLoopSource(sim, app, submitted.append, 2.0,
                   lambda: 500, rngs.stream("arr"), connections=4)
    sim.run(until=1 * MS)
    assert {r.conn_id for r in submitted} == {0, 1, 2, 3}


def test_bursty_long_run_average_matches(sim, rngs):
    app = make_app()
    submitted = []
    BurstySource(sim, app, submitted.append, rate_mops=1.0,
                 service_sampler=lambda: 500,
                 rng=rngs.stream("arr"), burst_factor=4.0)
    sim.run(until=80 * MS)
    assert len(submitted) == pytest.approx(80_000, rel=0.25)


def test_bursty_is_actually_bursty(sim, rngs):
    app = make_app()
    submitted = []
    BurstySource(sim, app, submitted.append, rate_mops=1.0,
                 service_sampler=lambda: 500,
                 rng=rngs.stream("arr"), burst_factor=6.0)
    sim.run(until=40 * MS)
    # Coefficient of variation of per-window counts should exceed Poisson.
    window = MS // 2
    counts = {}
    for request in submitted:
        counts[request.arrival_ns // window] = counts.get(
            request.arrival_ns // window, 0) + 1
    values = list(counts.values())
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert var > 2.0 * mean  # Poisson would have var ~= mean


def test_bursty_burst_factor_validated(sim, rngs):
    with pytest.raises(ValueError):
        BurstySource(sim, make_app(), lambda r: None, 1.0,
                     lambda: 500, rngs.stream("arr"),
                     burst_factor=0.5)


def test_request_latency_helper():
    request = Request(make_app(), arrival_ns=100, service_ns=10)
    assert request.latency_ns(350) == 250
