"""Tests for the shared system base and report math."""

import math
from array import array

import pytest

from repro.sched.base import ColocationSystem, SystemReport
from repro.workloads.base import Request
from repro.workloads.memcached import memcached_app


def test_report_throughput():
    report = SystemReport(system="x", elapsed_ns=1_000_000,
                          num_worker_cores=2)
    report.completed["mc"] = 500
    assert report.throughput_mops("mc") == pytest.approx(0.5)
    assert report.throughput_mops("missing") == 0.0


def test_report_fractions():
    report = SystemReport(system="x", elapsed_ns=100, num_worker_cores=2)
    report.buckets = {"app:a": 60, "app:b": 40, "runtime": 50, "kernel": 30,
                      "idle": 20}
    assert report.app_fraction() == pytest.approx(0.5)
    assert report.waste_fraction() == pytest.approx(0.4)
    assert report.cores_equivalent("app") == pytest.approx(1.0)
    assert report.cores_equivalent("kernel") == pytest.approx(0.3)


def test_cores_equivalent_is_busy_over_elapsed():
    # The naive form — busy / (elapsed * num_cores) * num_cores — must
    # equal the simplified busy / elapsed regardless of the core count.
    for num_cores in (1, 2, 16):
        report = SystemReport(system="x", elapsed_ns=1_000,
                              num_worker_cores=num_cores)
        report.buckets = {"app:a": 750, "runtime": 500}
        naive = (750 / (1_000 * num_cores)) * num_cores
        assert report.cores_equivalent("app") == pytest.approx(naive)
        assert report.cores_equivalent("app") == pytest.approx(0.75)
        assert report.cores_equivalent("runtime") == pytest.approx(0.5)
    empty = SystemReport(system="x", elapsed_ns=0, num_worker_cores=2)
    assert empty.cores_equivalent("app") == 0.0
    report = SystemReport(system="x", elapsed_ns=100, num_worker_cores=2)
    assert report.cores_equivalent("missing") == 0.0


def test_report_p999_missing_is_nan():
    report = SystemReport(system="x", elapsed_ns=1, num_worker_cores=1)
    assert math.isnan(report.p999_us("nope"))


def test_base_system_validations(sim, machine, rngs):
    system = ColocationSystem.__new__(ColocationSystem)
    ColocationSystem.__init__(system, sim, machine, rngs)
    assert len(system.worker_cores) == machine.num_cores - 1
    with pytest.raises(ValueError):
        ColocationSystem(sim, machine, rngs, worker_cores=[])


def test_duplicate_app_rejected(sim, machine, rngs):
    system = ColocationSystem(sim, machine, rngs)
    system.add_app(memcached_app("a"))
    with pytest.raises(ValueError):
        system.add_app(memcached_app("a"))


def test_begin_service_returns_service_when_decoupled(sim, machine, rngs):
    system = ColocationSystem(sim, machine, rngs)
    app = memcached_app()
    request = Request(app, 0, 1234)
    sim.run(until=77)
    assert request.start_ns is None
    assert system.begin_service(request, 3) == 1234
    assert request.start_ns == 77


def test_begin_service_inflates_with_bus(sim, machine, rngs):
    system = ColocationSystem(sim, machine, rngs)
    system.bus_sensitivity = 2.0
    app = memcached_app()
    request = Request(app, 0, 1000)
    machine.membus.start_transfer("x", 1e12, machine.membus.capacity * 2)
    inflated = system.begin_service(request)
    assert inflated == pytest.approx(1000 * (1 + 2.0 * 0.5), abs=2)
    assert request.start_ns == sim.now
    # The request keeps its own service time; only the run is inflated.
    assert request.service_ns == 1000


def test_end_service_measures_from_client_send_and_answers(sim, machine,
                                                            rngs):
    system = ColocationSystem(sim, machine, rngs)
    app = memcached_app()
    request = Request(app, 100, 50)
    request.client_send_ns = 40
    answered = []
    request.on_complete = lambda req, now: answered.append((req, now))
    sim.run(until=400)
    system.end_service(request)
    assert app.latency.samples == array("q", [360])
    assert answered == [(request, 400)]


def test_begin_measurement_resets(sim, machine, rngs):
    system = ColocationSystem(sim, machine, rngs)
    app = memcached_app()
    system.add_app(app)
    sim.run(until=100)
    system.end_service(Request(app, 0, 10))
    system.worker_cores[0].run("app:memcached", 50)
    sim.run()
    system.begin_measurement()
    assert app.completed == 0
    report = system.report()
    assert report.buckets in ({}, {"idle": 0})


def test_one_latency_record_per_completed_request(monkeypatch):
    """A direct-submit run keeps exactly one latency sample per request."""
    from repro.experiments.common import ExperimentConfig, run_colocation
    from repro.sim.stats import LatencyRecorder

    calls = []
    record = LatencyRecorder.record

    def counting_record(self, latency_ns):
        calls.append(self.name)
        record(self, latency_ns)

    monkeypatch.setattr(LatencyRecorder, "record", counting_record)
    cfg = ExperimentConfig(num_workers=4, sim_ms=4, warmup_ms=0, seed=3)
    report = run_colocation("vessel", cfg,
                            l_specs=[("memcached", "mc", 1.0)],
                            b_specs=("linpack",))
    assert report.completed["mc"] > 0
    assert len(calls) == report.completed["mc"]
