"""Integration tests for the VESSEL scheduler system."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS
from repro.sim.stats import summarize_ns
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.vessel.scheduler import VesselSystem
from repro.workloads.base import OpenLoopSource, Request
from repro.workloads.linpack import linpack_app
from repro.workloads.memcached import memcached_app, UsrServiceSampler


def build(num_workers=4, apps=("memcached", "linpack"), rate=1.0,
          sim_ms=10, seed=1, service=None):
    sim = Simulator()
    machine = Machine(sim, CostModel(), num_workers + 1)
    rngs = RngStreams(seed)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:])
    mc = lp = None
    if "memcached" in apps:
        mc = memcached_app()
        system.add_app(mc)
    if "linpack" in apps:
        lp = linpack_app()
        system.add_app(lp)
    system.start()
    if mc is not None:
        sampler = service or UsrServiceSampler(rngs.stream("svc"))
        OpenLoopSource(sim, mc, system.submit, rate, sampler,
                       rngs.stream("arrivals"))
    sim.run(until=sim_ms * MS)
    return sim, machine, system, mc, lp


def test_all_offered_requests_complete_at_low_load():
    _, _, system, mc, _ = build(rate=0.5)
    assert mc.completed.value > 0
    # open queue should be short at 12.5% load
    assert len(mc.queue) < 5
    assert mc.completed.value >= mc.offered.value - 5


def test_latency_close_to_service_time_at_low_load():
    _, _, system, mc, _ = build(rate=0.3)
    summary = summarize_ns(mc.latency.samples)
    assert summary["avg_us"] < 3.0
    assert summary["p999_us"] < 10.0


def test_batch_app_soaks_idle_cores():
    _, _, system, _, lp = build(rate=0.5, sim_ms=10)
    report = system.report()
    # ~0.5 cores go to memcached; most of the other 3.5 go to linpack
    assert report.useful_ns["linpack"] > 2.5 * report.elapsed_ns


def test_no_batch_app_leaves_cores_idle():
    _, _, system, mc, _ = build(apps=("memcached",), rate=0.5)
    report = system.report()
    assert report.buckets.get("idle", 0) > 0


def test_accounting_conserved():
    _, machine, system, _, _ = build(rate=2.0, sim_ms=10)
    report = system.report()
    total = sum(report.buckets.values())
    assert total == report.elapsed_ns * report.num_worker_cores


def test_preemptions_happen_when_be_occupies_cores():
    _, _, system, _, _ = build(rate=2.0, sim_ms=10)
    assert system.preemptions > 0
    assert system.switcher.preempt_switches > 0


def test_pkru_always_matches_running_task():
    sim, machine, system, mc, lp = build(rate=2.0, sim_ms=5)
    pipe = system.domain.smas.pipe
    for core in system.worker_cores:
        task = pipe.cpuid_to_task.get(core.id)
        if task is not None and core.category.startswith("app"):
            assert core.pkru.value == task.uproc.pkru().value


def test_waste_fraction_is_small():
    _, _, system, _, _ = build(rate=2.0, sim_ms=15)
    report = system.report()
    assert report.waste_fraction() < 0.12  # paper: ~6.6% decline


def test_dense_apps_share_one_core_fairly():
    sim = Simulator()
    machine = Machine(sim, CostModel(), 2)
    rngs = RngStreams(3)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:])
    apps = []
    for i in range(4):
        app = memcached_app(f"mc{i}")
        system.add_app(app)
        apps.append(app)
    system.start()
    for i, app in enumerate(apps):
        OpenLoopSource(sim, app, system.submit, 0.15,
                       lambda: 1000, rngs.stream(f"arr{i}"))
    sim.run(until=20 * MS)
    counts = [app.completed.value for app in apps]
    assert min(counts) > 0.7 * max(counts)  # no app starved
    for app in apps:
        assert summarize_ns(app.latency.samples)["p99_us"] < 60


def test_rotation_quantum_prevents_hogging():
    sim = Simulator()
    machine = Machine(sim, CostModel(), 2)
    rngs = RngStreams(4)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:])
    hog = memcached_app("hog")
    meek = memcached_app("meek")
    system.add_app(hog)
    system.add_app(meek)
    system.start()
    OpenLoopSource(sim, hog, system.submit, 0.9, lambda: 1000,
                   rngs.stream("hog"))
    OpenLoopSource(sim, meek, system.submit, 0.05, lambda: 1000,
                   rngs.stream("meek"))
    sim.run(until=20 * MS)
    assert meek.completed.value > 0
    assert summarize_ns(meek.latency.samples)["p99_us"] < 100
    assert system.rotations > 0


def test_start_twice_rejected():
    sim = Simulator()
    machine = Machine(sim, CostModel(), 2)
    system = VesselSystem(sim, machine, RngStreams(0),
                          worker_cores=machine.cores[1:])
    system.add_app(linpack_app())
    system.start()
    with pytest.raises(RuntimeError):
        system.start()


@pytest.mark.parametrize("workers", [8, 42, 44])
def test_reaction_delay_fixed_at_construction(workers):
    """The arrival-to-dispatch delay is derived once, when the system is
    built; an arrival submitted before ``start`` already uses it."""
    sim = Simulator()
    machine = Machine(sim, CostModel(), workers + 1)
    system = VesselSystem(sim, machine, RngStreams(0),
                          worker_cores=machine.cores[1:])
    react_ns = int(max(system.costs.sched_react_ns,
                       system.effective_scan_ns // 2)
                   * system.control_plane_factor)
    assert system._react_ns == react_ns
    app = memcached_app()
    system.add_app(app)
    parked = system.policy.ctx.app_state(app.name).parked
    system.submit(Request(app, sim.now, 1_000, 0))
    assert sim.pending() == 1
    sim.run(until=react_ns - 1)
    assert len(parked) == workers  # no server thread placed yet
    sim.run(until=react_ns)
    assert len(parked) == workers - 1


def test_duplicate_app_name_rejected():
    sim = Simulator()
    machine = Machine(sim, CostModel(), 2)
    system = VesselSystem(sim, machine, RngStreams(0),
                          worker_cores=machine.cores[1:])
    system.add_app(memcached_app("x"))
    with pytest.raises(ValueError):
        system.add_app(memcached_app("x"))


def test_uintr_counters_advance():
    sim, machine, system, _, _ = build(rate=2.0, sim_ms=5)
    assert machine.uintr.sent > 0
    assert machine.uintr.delivered > 0


def test_suspend_resume_batch_app():
    sim = Simulator()
    machine = Machine(sim, CostModel(), 3)
    rngs = RngStreams(5)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:])
    lp = linpack_app()
    system.add_app(lp)
    system.start()
    sim.run(until=2 * MS)
    useful_before = lp.useful_ns
    system.suspend_batch_app("linpack")
    sim.run(until=4 * MS)
    suspended_gain = lp.useful_ns - useful_before
    system.resume_batch_app("linpack")
    sim.run(until=6 * MS)
    resumed_gain = lp.useful_ns - useful_before - suspended_gain
    assert suspended_gain < 0.05 * (2 * MS) * 2  # nearly nothing
    assert resumed_gain > 1.5 * MS  # both cores working again
