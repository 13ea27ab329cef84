"""Cross-cutting tests for the baseline colocation systems."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.kernel.kprocess import ThreadState
from repro.baselines.arachne import ArachneSystem
from repro.baselines.caladan import CaladanSystem, caladan_dr_l, caladan_dr_h
from repro.baselines.ideal import IdealSystem
from repro.baselines.linux_cfs import LinuxCfsSystem
from repro.vessel.scheduler import VesselSystem
from repro.workloads.base import OpenLoopSource, Request
from repro.workloads.linpack import linpack_app
from repro.workloads.memcached import memcached_app, UsrServiceSampler

ALL_SYSTEMS = [IdealSystem, VesselSystem, CaladanSystem, caladan_dr_l,
               caladan_dr_h, ArachneSystem, LinuxCfsSystem]


def run_system(factory, rate=0.5, sim_ms=12, workers=4, seed=7,
               with_batch=True):
    sim = Simulator()
    machine = Machine(sim, CostModel(), workers + 1)
    rngs = RngStreams(seed)
    system = factory(sim, machine, rngs, worker_cores=machine.cores[1:])
    app = memcached_app()
    system.add_app(app)
    if with_batch:
        system.add_app(linpack_app())
    system.start()
    OpenLoopSource(sim, app, system.submit, rate,
                   UsrServiceSampler(rngs.stream("svc")),
                   rngs.stream("arr"))
    sim.run(until=sim_ms * MS)
    return system, app, system.report()


@pytest.mark.parametrize("factory", ALL_SYSTEMS)
def test_every_system_completes_requests(factory):
    _, app, _ = run_system(factory)
    assert app.completed.value > 0
    # At 12.5% load every system must keep up on average.
    assert app.completed.value >= 0.9 * (app.offered.value - len(app.queue))


@pytest.mark.parametrize("factory", ALL_SYSTEMS)
def test_accounting_conserved_everywhere(factory):
    system, _, report = run_system(factory)
    total = sum(report.buckets.values())
    assert total == report.elapsed_ns * report.num_worker_cores


@pytest.mark.parametrize("factory", ALL_SYSTEMS)
def test_latency_at_least_service_time(factory):
    _, app, _ = run_system(factory)
    assert app.latency.percentile_us(1) >= 0.5  # min service ~0.7 us


def test_ideal_has_zero_overhead():
    _, _, report = run_system(IdealSystem)
    assert report.waste_fraction() == 0.0
    assert report.app_fraction() == pytest.approx(1.0)


def test_latency_ordering_vessel_caladan_cfs():
    """The paper's headline latency ordering at moderate load."""
    results = {}
    for factory in (VesselSystem, CaladanSystem, LinuxCfsSystem):
        _, app, _ = run_system(factory, rate=1.0, sim_ms=15)
        results[factory] = app.latency.percentile_us(99.9)
    assert results[VesselSystem] < results[CaladanSystem]
    assert results[CaladanSystem] < results[LinuxCfsSystem]


def test_efficiency_ordering_vessel_beats_caladan():
    _, _, vessel = run_system(VesselSystem, rate=1.5, sim_ms=15)
    _, _, caladan = run_system(CaladanSystem, rate=1.5, sim_ms=15)
    assert vessel.waste_fraction() < caladan.waste_fraction()
    assert vessel.app_fraction() > caladan.app_fraction()


def test_dr_h_more_efficient_higher_latency_than_dr_l():
    _, app_l, rep_l = run_system(caladan_dr_l, rate=1.5, sim_ms=20)
    _, app_h, rep_h = run_system(caladan_dr_h, rate=1.5, sim_ms=20)
    assert rep_h.waste_fraction() <= rep_l.waste_fraction() + 0.01
    assert app_h.latency.percentile_us(99.9) > \
        app_l.latency.percentile_us(99.9) * 0.9


def test_caladan_uses_fig3_pipeline():
    system, _, _ = run_system(CaladanSystem, rate=2.5, sim_ms=15)
    assert system.reallocations + system.rebinds > 0
    assert system.parks > 0


def test_cfs_b_app_gets_most_cores_at_low_load():
    """Paper: 'Linux CFS always grants cores to execute B-app'."""
    _, _, report = run_system(LinuxCfsSystem, rate=0.3, sim_ms=20)
    b_cores = report.buckets.get("app:linpack", 0) / report.elapsed_ns
    assert b_cores > 2.0  # of 4 workers


def test_cfs_latency_is_milliseconds():
    _, app, _ = run_system(LinuxCfsSystem, rate=0.5, sim_ms=25)
    assert app.latency.percentile_us(99.9) > 1000  # >1 ms


def test_cfs_wakes_rotate_over_sleeping_workers():
    """An arrival wakes the first sleeping server thread at or after the
    one after the last thread it woke, wrapping around; with none
    asleep it wakes nobody."""
    sim = Simulator()
    machine = Machine(sim, CostModel(), 4)
    system = LinuxCfsSystem(sim, machine, RngStreams(0))
    app = memcached_app("mc")
    system.add_app(app)
    threads = system._workers["mc"]
    asleep, awake = ThreadState.SLEEPING, ThreadState.RUNNABLE
    for thread, state in zip(threads, (asleep, awake, asleep, awake)):
        thread.state = state

    def arrival_wakes():
        before = [t.state for t in threads]
        system.on_arrival(app, Request(app, sim.now, 1_000, 0))
        return [i for i, t in enumerate(threads) if t.state is not before[i]]

    assert arrival_wakes() == [0]
    assert arrival_wakes() == [2]
    threads[0].state = asleep
    assert arrival_wakes() == [0]  # from thread 3, wrapped
    assert arrival_wakes() == []
    threads[1].state = asleep
    assert arrival_wakes() == [1]


def test_arachne_saturates_at_granted_cores():
    """With a lagging estimator, Arachne cannot serve much more than its
    initial single-core grant within a short window."""
    _, app, _ = run_system(ArachneSystem, rate=2.5, sim_ms=15)
    max_possible = 15 * MS / 970  # one core's worth
    assert app.completed.value <= 1.3 * max_possible
    assert app.latency.percentile_us(99.9) > 500


def test_caladan_bw_cap_constructor():
    sim = Simulator()
    machine = Machine(sim, CostModel(), 3)
    system = CaladanSystem(sim, machine, RngStreams(0),
                           worker_cores=machine.cores[1:],
                           bw_cap_app="membench", bw_cap_gbps=10.0)
    assert system.bw_cap_app == "membench"


def test_caladan_arrival_goes_to_first_spinning_core():
    """Two cores spin inside the app: an arrival ends the spin of the
    first in worker-core order.  A core spinning inside another app is
    left alone."""
    sim = Simulator()
    machine = Machine(sim, CostModel(), 5)
    system = CaladanSystem(sim, machine, RngStreams(0),
                           worker_cores=machine.cores[1:])
    app, other = memcached_app("mc"), memcached_app("other")
    system.add_app(app)
    system.add_app(other)
    states = list(system._cores.values())
    for state, owner in zip(states, (other, app, app, app)):
        state.owner = owner
    # With empty queues, serving means spinning; the second core is
    # owned by the app but not spinning.
    for state in (states[0], states[2], states[3]):
        system._serve(state)
    assert [s.kind for s in states] == ["spin", None, "spin", "spin"]
    request = Request(app, sim.now, 1_000, 0)
    system.submit(request)
    assert states[2].kind == "serve" and states[2].request is request
    assert states[3].kind == "spin" and states[3].request is None
    assert states[0].kind == "spin" and states[0].owner is other
    assert states[1].kind is None
    sim.run(until=10_000)
    assert app.completed.value == 1


def test_ideal_preempts_batch_for_latency_instantly():
    _, app, report = run_system(IdealSystem, rate=2.0, sim_ms=10)
    assert app.latency.percentile_us(99.9) < 5.0


def test_fig12_control_plane_factors():
    """The Figure 12 knee mechanics without the full (slow) sweep."""

    def factors(system_cls, workers):
        sim = Simulator()
        machine = Machine(sim, CostModel(), workers + 1)
        system = system_cls(sim, machine, RngStreams(0),
                            worker_cores=machine.cores[1:])
        return system.control_plane_factor

    assert factors(VesselSystem, 8) < 1.5
    assert factors(VesselSystem, 42) > 5
    assert factors(VesselSystem, 44) > factors(VesselSystem, 42)
    # Caladan's IOKernel saturates far earlier.
    assert factors(CaladanSystem, 8) < 1.5
    assert factors(CaladanSystem, 32) > 10
    assert factors(CaladanSystem, 8) > factors(VesselSystem, 8)
