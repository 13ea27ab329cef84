"""End-to-end invariants across the whole stack, including randomized
(property-based) runs of the full VESSEL system."""

from functools import partial

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS
from repro.sim.stats import summarize_ns
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.vessel.scheduler import VesselSystem
from repro.baselines.caladan import CaladanSystem
from repro.workloads.base import OpenLoopSource
from repro.workloads.linpack import linpack_app
from repro.workloads.memcached import memcached_app
from repro.workloads.synthetic import exponential_ns


def _run(system_cls, workers, n_lapps, rate_each, seed, sim_ms=8):
    sim = Simulator()
    machine = Machine(sim, CostModel(), workers + 1)
    rngs = RngStreams(seed)
    system = system_cls(sim, machine, rngs,
                        worker_cores=machine.cores[1:])
    apps = [memcached_app(f"l{i}") for i in range(n_lapps)]
    for app in apps:
        system.add_app(app)
    batch = linpack_app()
    system.add_app(batch)
    system.start()
    for i, app in enumerate(apps):
        service = rngs.stream(f"svc{i}").random
        OpenLoopSource(sim, app, system.submit, rate_each,
                       partial(exponential_ns, service, 1.0 / 1000),
                       rngs.stream(f"arr{i}"))
    sim.run(until=sim_ms * MS)
    return sim, machine, system, apps, batch


@settings(max_examples=12, deadline=None)
@given(
    workers=st.integers(min_value=1, max_value=6),
    n_lapps=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_vessel_randomized_invariants(workers, n_lapps, seed):
    rate_each = 0.4 * workers / n_lapps  # 40% aggregate load
    sim, machine, system, apps, batch = _run(
        VesselSystem, workers, n_lapps, rate_each, seed)
    report = system.report()

    # 1. Time conservation: every worker nanosecond is accounted once.
    assert sum(report.buckets.values()) == \
        report.elapsed_ns * report.num_worker_cores

    # 2. No request is lost: offered == completed + still queued + in flight.
    for app in apps:
        in_flight = sum(1 for cs in system._cores.values()
                        if cs.request is not None
                        and cs.request.app is app)
        assert app.offered == (app.completed + len(app.queue)
                                     + in_flight)

    # 3. Latency >= 0 and app work <= offered work.
    for app in apps:
        if app.latency.samples:
            assert min(app.latency.samples) >= 0

    # 4. MPK safety: every core running app code has the PKRU of the
    #    thread the message pipe maps to it.
    pipe = system.domain.smas.pipe
    for core in system.worker_cores:
        task = pipe.cpuid_to_task.get(core.id)
        if task is not None and core.category.startswith("app:"):
            assert core.pkru.value == task.uproc.pkru().value

    # 5. Batch progress is bounded by total core time.
    assert batch.useful_ns <= report.elapsed_ns * report.num_worker_cores


@settings(max_examples=8, deadline=None)
@given(
    workers=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_caladan_randomized_invariants(workers, seed):
    sim, machine, system, apps, batch = _run(
        CaladanSystem, workers, 1, 0.4 * workers, seed)
    report = system.report()
    assert sum(report.buckets.values()) == \
        report.elapsed_ns * report.num_worker_cores
    app = apps[0]
    in_flight = sum(1 for cs in system._cores.values()
                    if cs.request is not None)
    assert app.offered == (app.completed + len(app.queue)
                                 + in_flight)


def test_same_seed_is_deterministic():
    results = []
    for _ in range(2):
        _, _, system, apps, batch = _run(VesselSystem, 3, 2, 0.4, seed=99)
        results.append((apps[0].completed, apps[1].completed,
                        batch.useful_ns,
                        tuple(sorted(apps[0].latency.samples))))
    assert results[0] == results[1]


def test_different_seeds_differ():
    outcomes = set()
    for seed in (1, 2):
        _, _, _, apps, _ = _run(VesselSystem, 3, 1, 1.0, seed=seed)
        outcomes.add(tuple(apps[0].latency.samples[:50]))
    assert len(outcomes) == 2


def test_vessel_functional_state_consistent_after_run():
    """After a busy run the uProcess layer is still coherent."""
    _, machine, system, apps, _ = _run(VesselSystem, 4, 2, 1.0, seed=5,
                                       sim_ms=10)
    domain = system.domain
    # every thread claims a core consistently with the pipe map
    for core_id, task in domain.smas.pipe.cpuid_to_task.items():
        if task is not None and task.core_id is not None:
            assert task.core_id == core_id
    # all uProcesses still alive and in their slots
    for uproc in domain.uprocs:
        assert uproc.alive
        assert uproc.slot.in_use


def test_heavier_load_means_more_latency():
    lats = []
    for rate in (0.5, 3.5):
        _, _, _, apps, _ = _run(VesselSystem, 4, 1, rate, seed=11,
                                sim_ms=10)
        lats.append(summarize_ns(apps[0].latency.samples)["p99_us"])
    assert lats[1] > lats[0]


def test_batch_yield_when_latency_app_saturates():
    _, _, system, apps, batch = _run(VesselSystem, 2, 1, 1.9, seed=13,
                                     sim_ms=10)
    report = system.report()
    # ~95% load: linpack must be squeezed to almost nothing
    assert batch.useful_ns < 0.2 * report.elapsed_ns * 2
    assert apps[0].completed > 0
