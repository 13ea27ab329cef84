"""Admission control: watermarks, shed accounting, client rejections."""

from functools import partial

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS, US
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.net import NetConfig, NetFabric
from repro.overload.admission import AdmissionConfig, AdmissionControl
from repro.vessel.scheduler import VesselSystem
from repro.workloads.base import OpenLoopSource, Request
from repro.workloads.memcached import UsrServiceSampler, memcached_app
from repro.workloads.linpack import linpack_app
from repro.workloads.synthetic import exponential_ns


def build(workers=2, seed=7):
    sim = Simulator()
    machine = Machine(sim, CostModel(), workers + 1)
    rngs = RngStreams(seed)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:])
    return sim, machine, rngs, system


def test_attach_interposes_submit():
    sim, machine, rngs, system = build()
    ctl = AdmissionControl(sim, AdmissionConfig())
    original = system.submit
    ctl.attach(system)
    assert system.submit == ctl.submit
    assert system.admission is ctl
    assert ctl._inner_submit == original
    with pytest.raises(RuntimeError):
        ctl.attach(system)


def test_queue_depth_watermark_sheds():
    sim, machine, rngs, system = build()
    ctl = AdmissionControl(sim, AdmissionConfig(max_queue_depth=4,
                                                max_oldest_wait_ns=0))
    ctl.attach(system)
    app = memcached_app("mc")
    system.add_app(app)
    # Don't start the system: nothing drains, so the depth cap binds
    # after exactly 4 admitted requests.
    for _ in range(10):
        system.submit(Request(app, sim.now, 1000, 0))
    assert len(app.queue) == 4
    assert ctl.admitted["mc"] == 4
    assert ctl.shed["mc"]["queue_depth"] == 6
    assert ctl.shed_by_stage["submit"] == 6
    assert ctl.total_shed("mc") == 6


def test_oldest_wait_watermark_sheds():
    sim, machine, rngs, system = build()
    ctl = AdmissionControl(sim, AdmissionConfig(max_queue_depth=0,
                                                max_oldest_wait_ns=50 * US))
    ctl.attach(system)
    app = memcached_app("mc")
    # A stale head-of-line request (placed directly, bypassing both the
    # scheduler and admission): age decides, not depth.
    app.queue.append(Request(app, arrival_ns=0, service_ns=1000, conn_id=0))
    sim.at(40 * US, lambda: None)
    sim.run(until=40 * US)
    assert ctl.reason_to_shed(app, sim.now) is None  # 40 us < 50 us
    sim.at(60 * US, lambda: None)
    sim.run(until=60 * US)
    assert ctl.reason_to_shed(app, sim.now) == "oldest_wait"
    ctl.submit(Request(app, sim.now, 1000, 0))
    assert len(app.queue) == 1  # the newcomer was shed
    assert ctl.shed["mc"]["oldest_wait"] == 1


def test_batch_apps_never_shed():
    sim, machine, rngs, system = build()
    ctl = AdmissionControl(sim, AdmissionConfig(max_queue_depth=1))
    ctl.attach(system)
    batch = linpack_app()
    system.add_app(batch)
    assert ctl.reason_to_shed(batch, sim.now) is None


def test_zero_watermarks_disable_checks():
    sim, machine, rngs, system = build()
    ctl = AdmissionControl(sim, AdmissionConfig(max_queue_depth=0,
                                                max_oldest_wait_ns=0))
    ctl.attach(system)
    app = memcached_app("mc")
    system.add_app(app)
    for _ in range(500):
        system.submit(Request(app, sim.now, 1000, 0))
    assert len(app.queue) == 500
    assert ctl.total_shed() == 0


def test_begin_measurement_zeroes_counters():
    sim, machine, rngs, system = build()
    ctl = AdmissionControl(sim, AdmissionConfig(max_queue_depth=2))
    ctl.attach(system)
    app = memcached_app("mc")
    system.add_app(app)
    for _ in range(5):
        system.submit(Request(app, sim.now, 1000, 0))
    assert ctl.total_shed() == 3
    ctl.begin_measurement()
    assert ctl.total_shed() == 0
    assert ctl.admitted == {}
    snap = ctl.snapshot()
    assert snap["by_stage"] == {"ingress": 0, "submit": 0}


def test_ingress_shed_sends_rejection_to_client():
    """Over the fabric, sheds reject at the NIC and clients observe
    them (sheds counter) instead of timing out."""
    sim, machine, rngs, system = build(workers=2)
    ctl = AdmissionControl(sim, AdmissionConfig(max_queue_depth=3,
                                                max_oldest_wait_ns=0))
    ctl.attach(system)
    fabric = NetFabric(sim, NetConfig(), rngs, num_workers=2)
    app = memcached_app("mc")
    system.add_app(app)
    # Way over capacity for 2 workers: the depth cap must engage.
    fabric.add_workload(app, 6.0, UsrServiceSampler(rngs.stream("svc")),
                        None, 8)
    fabric.connect(system)
    fabric.admission = ctl
    system.start()
    sim.run(until=2 * MS)
    stats = fabric.stats["mc"]
    assert stats["sheds"] > 0
    assert ctl.shed_by_stage["ingress"] > 0
    # Clients saw every shed as a response-like rejection: each one
    # retried or was counted lost, never silently dropped.
    conservation = fabric.conservation()["mc"]
    assert conservation["balance"] == 0


def test_direct_mode_shed_drops_silently():
    """Without a fabric the shed request simply never enters the
    system (open-loop sources don't react), but is still counted."""
    sim, machine, rngs, system = build()
    ctl = AdmissionControl(sim, AdmissionConfig(max_queue_depth=2,
                                                max_oldest_wait_ns=0))
    ctl.attach(system)
    app = memcached_app("mc")
    system.add_app(app)
    service = rngs.stream("s").random
    OpenLoopSource(sim, app, system.submit, 2.0,
                   partial(exponential_ns, service, 1.0 / 1000),
                   rngs.stream("a"))
    sim.run(until=1 * MS)
    assert ctl.total_shed("mc") > 0
    assert len(app.queue) <= 2


def test_shed_ledger_ops_counted():
    from repro.obs.ledger import OpLedger
    sim = Simulator()
    ledger = OpLedger(sim=sim)
    machine = Machine(sim, CostModel(), 3, ledger=ledger)
    rngs = RngStreams(7)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:])
    ctl = AdmissionControl(sim, AdmissionConfig(max_queue_depth=1),
                           ledger=ledger)
    ctl.attach(system)
    app = memcached_app("mc")
    system.add_app(app)
    for _ in range(4):
        system.submit(Request(app, sim.now, 1000, 0))
    assert ledger.op_counts(domain="net").get("shed:queue_depth") == 3
