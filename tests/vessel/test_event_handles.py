"""Guard: VESSEL's hot path re-arms per-owner handles instead of
allocating an :class:`~repro.sim.engine.Event` per schedule.

A core's segment completion, the scheduler scan and the per-core
preemption watchdog each own one handle.  A run of thousands of
segments, scans and preemptions must therefore construct only a
handful of Events, however long it runs.
"""

from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS
from repro.vessel.scheduler import VesselSystem
from repro.workloads.base import OpenLoopSource
from repro.workloads.linpack import linpack_app
from repro.workloads.memcached import UsrServiceSampler, memcached_app
from repro.workloads.silo import silo_app, silo_service_sampler

NUM_WORKERS = 4
#: Events outside the per-core handles: the scan handle and one first
#: tick per open-loop source, plus one spare
SMALL_CONSTANT = 4


def test_direct_submit_run_allocates_no_event_per_schedule(monkeypatch):
    made = []
    original = engine.Event.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args[2] if len(args) > 2 else kwargs.get("fn"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(engine.Event, "__init__", counting_init)
    sim = Simulator()
    machine = Machine(sim, CostModel(), NUM_WORKERS + 1)
    rngs = RngStreams(7)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:], containment=True)
    mc = memcached_app()
    db = silo_app()
    for app in (mc, db, linpack_app()):
        system.add_app(app)
    system.start()
    OpenLoopSource(sim, mc, system.submit, 2.0,
                   UsrServiceSampler(rngs.stream("mc-svc")),
                   rngs.stream("mc-arr"))
    OpenLoopSource(sim, db, system.submit, 0.05,
                   silo_service_sampler(rngs.stream("db-svc")),
                   rngs.stream("db-arr"))
    sim.run(until=4 * MS)

    # The run did the work a per-schedule Event would show up in:
    # thousands of segments and scans, and watched BE preemptions.
    assert mc.completed > 3_000
    assert system.preemptions > 500
    assert system.containment.enabled
    assert not system.containment.uncontained()
    assert sim.events_fired > 20_000
    # One completion handle per core (workers and the scheduler core)
    # is at most one per worker plus one, and one watchdog per worker.
    assert len(made) <= 2 * NUM_WORKERS + 1 + SMALL_CONSTANT, made
