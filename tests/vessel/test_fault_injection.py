"""Fault injection and app termination under load.

The §4.3/§5.1 story end to end: kill or crash an application while the
full scheduler is running and verify the blast radius is exactly one
uProcess — the machine keeps scheduling, the other tenants keep their
throughput, and the slot is reusable.
"""

from functools import partial

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.vessel.scheduler import VesselSystem
from repro.workloads.base import OpenLoopSource
from repro.workloads.linpack import linpack_app
from repro.workloads.memcached import memcached_app
from repro.workloads.synthetic import exponential_ns


def build(n_lapps=2, workers=4, rate=0.6, seed=3):
    sim = Simulator()
    machine = Machine(sim, CostModel(), workers + 1)
    rngs = RngStreams(seed)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:])
    apps = [memcached_app(f"mc{i}") for i in range(n_lapps)]
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


def test_remove_app_mid_run_keeps_system_alive():
    sim, machine, system, apps, batch = build()
    sim.run(until=5 * MS)
    removed = system.remove_app("mc0")
    assert not removed.queue
    before_mc1 = apps[1].completed
    sim.run(until=12 * MS)
    # The survivor keeps making progress; the dead app does not.
    assert apps[1].completed > before_mc1
    assert apps[0].completed <= before_mc1 + len(apps[0].queue) + 1
    assert not apps[0].queue


def test_remove_app_releases_slot_for_new_tenant():
    sim, machine, system, apps, _ = build()
    sim.run(until=3 * MS)
    in_use_before = system.domain.smas.slots_in_use()
    system.remove_app("mc0")
    assert system.domain.smas.slots_in_use() == in_use_before - 1
    newcomer = memcached_app("newcomer")
    system.add_app(newcomer)  # reuses the freed slot
    sim.run(until=5 * MS)
    assert any(u.name == "newcomer" for u in system.domain.uprocs)


def test_remove_unknown_app_rejected():
    _, _, system, _, _ = build()
    with pytest.raises(KeyError):
        system.remove_app("ghost")


def test_crash_uproc_kills_exactly_one_uproc():
    sim, machine, system, apps, batch = build(rate=1.2)
    crashed = False
    deadline = 5 * MS
    while not crashed and deadline < 20 * MS:
        sim.run(until=deadline)
        crashed = system.containment.crash_uproc("mc0")
        deadline += MS // 5
    assert crashed, "mc0 never observed on-core"
    sim.run(until=deadline)  # deliver the SIGSEGV to the runtime handler
    assert system.containment.contained_crashes == 1
    uprocs = {u.name: u for u in system.domain.uprocs}
    # A contained crash fully reaps the victim, which drops it from the
    # domain roster; the survivors stay.
    assert "mc0" not in uprocs
    assert uprocs["mc1"].alive
    assert uprocs["linpack"].alive
    # System continues scheduling the survivors.
    before = apps[1].completed
    sim.run(until=12 * MS)
    assert apps[1].completed > before
    assert batch.useful_ns > 0


@pytest.mark.parametrize("fault", ["crash_uproc", "make_rogue"])
def test_crash_uproc_off_core_is_noop(fault):
    sim, machine, system, apps, _ = build(rate=0.0)
    sim.run(until=1 * MS)
    # With no requests mc0 never holds a core, so there is no running
    # thread to fault and no latency app dies.
    assert not getattr(system.containment, fault)("mc0")
    assert not any(t.rogue for t in system._apps["mc0"].threads)
    sim.run(until=2 * MS)
    assert system.containment.contained_crashes == 0
    uprocs = {u.name: u for u in system.domain.uprocs}
    assert uprocs["mc0"].alive and uprocs["mc1"].alive


def test_accounting_still_conserved_after_removal():
    sim, machine, system, apps, _ = build()
    sim.at(4 * MS, lambda: system.remove_app("mc0"))
    sim.run(until=10 * MS)
    report = system.report()
    assert sum(report.buckets.values()) == \
        report.elapsed_ns * report.num_worker_cores


def test_faulted_threads_never_scheduled_again():
    sim, machine, system, apps, _ = build()
    sim.run(until=4 * MS)
    system.remove_app("mc0")
    dead_threads = [t for t in system.domain.smas.pipe.cpuid_to_task.values()
                    if t is not None and t.uproc.name == "mc0"]
    sim.run(until=10 * MS)
    from repro.uprocess.threads import UThreadState
    for cs in system._cores.values():
        if cs.thread is not None:
            assert cs.thread.uproc.alive
            assert cs.thread.state is not UThreadState.DEAD
