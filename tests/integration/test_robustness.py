"""Robustness: the headline orderings hold across seeds, and the
Caladan policy knobs behave as specified."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS
from repro.sim.stats import summarize_ns
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.baselines.caladan import CaladanSystem, caladan_dr_h
from repro.vessel.scheduler import VesselSystem
from repro.workloads.base import OpenLoopSource
from repro.workloads.linpack import linpack_app
from repro.workloads.memcached import memcached_app, UsrServiceSampler


def run_once(factory, seed, rate=1.2, workers=3, sim_ms=12):
    sim = Simulator()
    machine = Machine(sim, CostModel(), workers + 1)
    rngs = RngStreams(seed)
    system = factory(sim, machine, rngs, worker_cores=machine.cores[1:])
    app = memcached_app()
    system.add_app(app)
    system.add_app(linpack_app())
    system.start()
    OpenLoopSource(sim, app, system.submit, rate,
                   UsrServiceSampler(rngs.stream("svc")),
                   rngs.stream("arr"))
    sim.run(until=sim_ms * MS)
    return app, system.report()


@pytest.mark.parametrize("seed", [3, 17, 1001])
def test_vessel_beats_caladan_across_seeds(seed):
    vessel_app, vessel_rep = run_once(VesselSystem, seed)
    caladan_app, caladan_rep = run_once(CaladanSystem, seed)
    assert summarize_ns(vessel_app.latency.samples)["p999_us"] \
        < summarize_ns(caladan_app.latency.samples)["p999_us"]
    assert vessel_rep.waste_fraction() < caladan_rep.waste_fraction()


def test_caladan_tick_stretches_with_cores():
    sim = Simulator()
    machine = Machine(sim, CostModel(), 50)
    small = CaladanSystem(sim, machine, RngStreams(0),
                          worker_cores=machine.cores[1:9])
    big = CaladanSystem(sim, machine, RngStreams(1),
                        worker_cores=machine.cores[1:49])
    assert small.alloc_interval_ns == 10_000  # the configured 10 us
    assert big.alloc_interval_ns > 10_000     # stretched past capacity


def test_dr_h_grants_later_than_plain():
    """The Delay Range upper bound gates grants."""
    sim = Simulator()
    machine = Machine(sim, CostModel(), 4)
    plain = CaladanSystem(sim, machine, RngStreams(0),
                          worker_cores=machine.cores[1:])
    drh = caladan_dr_h(sim, machine, RngStreams(1),
                       worker_cores=machine.cores[1:])
    app = memcached_app()
    plain.add_app(app)
    from repro.workloads.base import Request
    app.queue.append(Request(app, arrival_ns=0, service_ns=1000))
    sim.now = 2000  # 2 us of queueing delay
    assert plain._congested(app)          # > 0 triggers plain Caladan
    drh_app = memcached_app("mc2")
    drh.add_app(drh_app)
    drh_app.queue.append(Request(drh_app, arrival_ns=0, service_ns=1000))
    assert not drh._congested(drh_app)    # 2 us < the 4 us DR-H bound
    sim.now = 5000
    assert drh._congested(drh_app)


def test_vessel_deterministic_across_runs():
    first_app, first = run_once(VesselSystem, seed=7)
    second_app, second = run_once(VesselSystem, seed=7)
    assert first.buckets == second.buckets
    assert first_app.latency.samples == second_app.latency.samples
