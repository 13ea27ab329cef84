"""The acceptance matrix: each fault class contained with the machinery
on, and visibly breaking the run with it off (the ablation), proving the
containment mechanisms are load-bearing.
"""

from functools import partial

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.experiments.common import ExperimentConfig, run_colocation
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.net.config import NetConfig
from repro.uprocess.threads import UThreadState
from repro.vessel.containment import HEARTBEAT_INTERVAL_NS
from repro.vessel.scheduler import VesselSystem
from repro.workloads.base import OpenLoopSource
from repro.workloads.linpack import linpack_app
from repro.workloads.memcached import memcached_app
from repro.workloads.synthetic import exponential_ns


def build(workers=4, rate=0.6, seed=7, containment=True):
    sim = Simulator()
    machine = Machine(sim, CostModel(), workers + 1)
    rngs = RngStreams(seed)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:],
                          containment=containment)
    apps = [memcached_app(f"mc{i}") for i in range(2)]
    for app in apps:
        system.add_app(app)
    batch = linpack_app()
    system.add_app(batch)
    system.start()
    for i, app in enumerate(apps):
        service = rngs.stream(f"s{i}").random
        OpenLoopSource(sim, app, system.submit, rate,
                       partial(exponential_ns, service, 1.0 / 1000),
                       rngs.stream(f"a{i}"))
    return sim, machine, system, apps, batch


def inject(system, plan):
    injector = FaultInjector(plan, system)
    injector.start()
    return injector


def test_injector_starts_once():
    _, _, system, _, _ = build()
    injector = inject(system, FaultPlan(seed=1).drop_uintr(1.0))
    with pytest.raises(RuntimeError, match="already attached"):
        injector.start()


# ----------------------------------------------------------------------
# Fault class (a): dropped Uintr deliveries
# ----------------------------------------------------------------------
def test_dropped_uintr_contained_by_watchdog():
    sim, machine, system, apps, _ = build()
    inject(system, FaultPlan(seed=1).drop_uintr(1.0))
    sim.run(until=6 * MS)
    assert machine.uintr.dropped > 0
    # Escalation chain exercised: retry first, then the kernel IPI.
    assert system.containment.fallback_retries > 0
    assert system.containment.fallback_ipis > 0
    assert machine.ipi.sent == system.containment.fallback_ipis
    # Both latency apps keep completing despite 100% notification loss.
    before = [app.completed for app in apps]
    assert all(b > 0 for b in before)
    sim.run(until=8 * MS)
    assert all(app.completed > b for app, b in zip(apps, before))
    assert system.uncontained() == []


def test_dropped_uintr_breaks_without_containment():
    sim, machine, system, apps, _ = build(containment=False)
    inject(system, FaultPlan(seed=1).drop_uintr(1.0))
    sim.run(until=6 * MS)
    assert machine.uintr.dropped > 0
    assert system.containment.fallback_ipis == 0
    # Every worker core ends up reserved for a preemption whose
    # notification never arrives: the switch limbo the watchdog exists
    # to resolve.  No latency request is ever served.
    limbo = [cs for cs in system._cores.values()
             if cs.kind == "switch" and not cs.core.busy
             and cs.batch_run is None]
    assert limbo
    assert all(app.completed == 0 for app in apps)


# ----------------------------------------------------------------------
# Fault class (b): MPK fault / crash inside a uThread
# ----------------------------------------------------------------------
def test_uthread_crash_contained_and_resources_reclaimed():
    sim, machine, system, apps, _ = build()
    uproc = system._apps["mc0"].uproc
    ufd = system.runtime.sys_open(uproc, "/data/db")
    kfd = system.runtime._kernel_fds[uproc][ufd]
    injector = inject(system, FaultPlan(seed=2).crash("mc0", at_ns=2 * MS))
    sim.run(until=3 * MS)
    assert injector.injected[FaultKind.CRASH_UTHREAD] == 1
    assert system.containment.contained_crashes == 1
    # Everything the uProcess held is reclaimed: threads and fd map
    # (terminate), SMAS slot, pkey (revoked to 0), proxied kernel
    # descriptors, queued commands.
    assert "mc0" not in system._apps
    assert not uproc.alive
    assert not uproc.slot.in_use
    assert uproc.slot.data_region.pkey == 0
    assert not uproc.fd_map
    assert system.runtime.kprocess.fdtable.lookup(kfd) is None
    assert uproc not in system.runtime._kernel_fds
    for queue in system.domain.queues.queues.values():
        for command in queue._queue:
            assert command.payload is not uproc
            assert getattr(command.payload, "uproc", None) is not uproc
    # Co-located tenants are undisturbed.
    before = apps[1].completed
    sim.run(until=6 * MS)
    assert apps[1].completed > before
    assert system.uncontained() == []


def test_uthread_crash_breaks_without_containment():
    sim, machine, system, apps, _ = build(containment=False)
    injector = inject(system, FaultPlan(seed=2).crash("mc0", at_ns=2 * MS))
    sim.run(until=4 * MS)
    assert injector.injected[FaultKind.CRASH_UTHREAD] == 1
    # The kernel's default SIGSEGV action killed the kProcess: the core
    # is lost and the slot leaks.
    assert any(core.wedged for core in machine.cores)
    assert system._apps["mc0"].uproc.slot.in_use
    assert system.containment.contained_crashes == 0
    assert system.signals.killed >= 1
    assert system.uncontained() != []


# ----------------------------------------------------------------------
# Fault class (c): non-cooperative (rogue) best-effort thread
# ----------------------------------------------------------------------
def test_rogue_thread_evicted_by_kernel_ipi():
    sim, machine, system, apps, _ = build()
    injector = inject(system,
                      FaultPlan(seed=3).rogue_thread("linpack", at_ns=1 * MS))
    sim.run(until=5 * MS)
    assert injector.injected[FaultKind.ROGUE_THREAD] == 1
    rogues = [t for t in system._apps["linpack"].threads if t.rogue]
    assert rogues
    # The rogue ignored its preemption commands, the watchdog escalated
    # to the kernel IPI, and the thread was evicted and destroyed.
    assert system.containment.rogue_kills == 1
    assert all(t.state is UThreadState.DEAD for t in rogues)
    assert all(t.core_id is None for t in rogues)
    before = [app.completed for app in apps]
    sim.run(until=7 * MS)
    assert all(app.completed > b for app, b in zip(apps, before))
    assert system.uncontained() == []


def test_rogue_thread_squats_core_without_containment():
    sim, machine, system, apps, _ = build(containment=False)
    injector = inject(system,
                      FaultPlan(seed=3).rogue_thread("linpack", at_ns=1 * MS))
    sim.run(until=5 * MS)
    assert injector.injected[FaultKind.ROGUE_THREAD] == 1
    rogues = [t for t in system._apps["linpack"].threads if t.rogue]
    assert rogues
    rogue = rogues[0]
    # No fallback path: the rogue holds its core for the rest of the run.
    assert system.containment.rogue_kills == 0
    assert rogue.state is UThreadState.RUNNING
    assert rogue.core_id is not None
    assert system._cores[rogue.core_id].thread is rogue


# ----------------------------------------------------------------------
# Fault class (d): stalled scheduler core
# ----------------------------------------------------------------------
def test_scheduler_stall_restarted_by_heartbeat():
    sim, machine, system, apps, _ = build(rate=1.2)
    stall_at = 2 * MS + 7_000
    inject(system, FaultPlan(seed=4).stall_scheduler(stall_at))
    sim.run(until=stall_at + 40_000)
    assert system._sched_stalled  # mid-outage, before the next heartbeat
    sim.run(until=stall_at + 2 * HEARTBEAT_INTERVAL_NS)
    assert not system._sched_stalled
    assert system.containment.sched_restarts >= 1
    before = [app.completed for app in apps]
    sim.run(until=6 * MS)
    assert all(app.completed > b for app, b in zip(apps, before))
    # The backlog built during the outage drains again.
    assert all(len(app.queue) < 100 for app in apps)
    assert system.uncontained() == []


def test_heartbeat_restart_keeps_one_scan_chain():
    """A scan interval past the heartbeat period makes every heartbeat
    see a late scan and restart it.  The restart replaces the pending
    pass rather than starting a second chain beside it."""
    sim = Simulator()
    slow_scan = CostModel().copy(vessel_scan_interval_ns=120_000)
    machine = Machine(sim, slow_scan, 3)
    system = VesselSystem(sim, machine, RngStreams(3),
                          worker_cores=machine.cores[1:])
    system.add_app(linpack_app())
    system.start()
    scans = []
    on_tick = system.policy.on_tick

    def counting_on_tick():
        scans.append(sim.now)
        return on_tick()

    system.policy.on_tick = counting_on_tick
    sim.run(until=1 * MS)
    assert system.containment.sched_restarts >= 5
    # One chain: each pass is a restart, 100 µs after the one before
    # (the heartbeat that follows a 50 µs-old scan passes it by).
    assert scans == list(range(100_000, 1 * MS + 1, 100_000))


def test_scheduler_stall_starves_without_containment():
    sim, machine, system, apps, _ = build(rate=1.2, containment=False)
    inject(system, FaultPlan(seed=4).stall_scheduler(2 * MS + 7_000))
    sim.run(until=6 * MS)
    assert system._sched_stalled
    assert system.containment.sched_restarts == 0
    # Arrivals keep landing but nothing rebalances: at this load a
    # single stuck server cannot keep up and the backlog diverges.
    assert any(len(app.queue) > 100 for app in apps)
    assert "scheduler core still stalled" in system.uncontained()


# ----------------------------------------------------------------------
# The audit on systems without VESSEL's containment machinery
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system_name", ["vessel", "caladan", "arachne"])
def test_fault_plan_audits_every_system(system_name):
    # Uintr faults never reach Caladan or Arachne (they reallocate
    # through the kernel), so packet drops make sure every system sees
    # an injected fault; the audit must run on all of them.
    cfg = ExperimentConfig(sim_ms=6, warmup_ms=1, net=NetConfig())
    plan = FaultPlan(seed=1).drop_uintr(0.05).drop_packets(0.05)
    report = run_colocation(system_name, cfg,
                            l_specs=[("memcached", "mc", 1.0)],
                            fault_plan=plan)
    assert report.uncontained == []
    assert report.fault_injected
