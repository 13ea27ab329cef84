"""Teardown leak regression: 1k create-destroy-create churn cycles.

Every ``remove_app`` must release the tenant's SMAS slot (and pkey),
boot kProcess, SIGSEGV registration, and proxied kernel descriptors —
under rapid recycling each per-cycle residue compounds into an audit
failure (and, for slots, a hard ``SmasError``) long before 1k cycles.
"""

import pytest

from repro.experiments.common import ExperimentConfig, run_colocation
from repro.overload.churn import ChurnConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import US
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.uprocess.smas import MAX_UPROCESSES
from repro.vessel.scheduler import VesselSystem
from repro.workloads.base import Request
from repro.workloads.memcached import memcached_app


def build(workers=2, seed=3):
    sim = Simulator()
    machine = Machine(sim, CostModel(), workers + 1)
    rngs = RngStreams(seed)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:])
    system.start()
    return sim, system


def baseline(system):
    return {
        "slots": system.domain.smas.slots_in_use(),
        "uprocs": len(system.domain.uprocs),
        "handlers": len(system.signals._handlers),
        "children": sum(1 for child in system.manager.kprocess.children
                        if child.alive),
        "fd_tables": sum(1 for fds in system.runtime._kernel_fds.values()
                         if fds),
    }


def test_1k_churn_cycles_return_to_baseline():
    sim, system = build()
    before = baseline(system)
    slot_indices = set()
    for cycle in range(1000):
        app = memcached_app(f"cycle{cycle}")
        system.add_app(app)
        slot_indices.add(system._apps[app.name].uproc.slot.index)
        system.remove_app(app.name)
    assert baseline(system) == before
    # Slots were recycled from the fixed pool, not burned through.
    assert len(slot_indices) <= MAX_UPROCESSES


def test_churn_cycles_with_traffic_between():
    """Create-destroy-create with requests served in between: teardown
    must also release threads claimed by the scheduler mid-protocol."""
    sim, system = build()
    before = baseline(system)
    for cycle in range(50):
        app = memcached_app(f"cycle{cycle}")
        system.add_app(app)
        for _ in range(4):
            system.submit(Request(app, sim.now, 1000, 0))
        sim.run(until=sim.now + 20 * US)
        system.remove_app(app.name)
    sim.run(until=sim.now + 100 * US)
    assert baseline(system) == before
    assert system.signals.stale_handlers() == []


def test_rapid_recreate_reuses_first_free_slot():
    sim, system = build()
    a = memcached_app("a")
    system.add_app(a)
    index = system._apps["a"].uproc.slot.index
    system.remove_app("a")
    b = memcached_app("b")
    system.add_app(b)
    assert system._apps["b"].uproc.slot.index == index


@pytest.mark.parametrize("seed, churn", [
    (42, ChurnConfig(tenants=3, lifetime_us=200, respawn_gap_us=50)),
    (7, ChurnConfig(tenants=4, lifetime_us=150, respawn_gap_us=40,
                    rate_mops=0.1)),
])
def test_churn_under_load_never_runs_a_destroyed_tenant(seed, churn):
    """A departing tenant's RUN_THREAD commands, drained during its own
    teardown, must be dropped rather than re-queued on a core FIFO: a
    re-queued thread outlives its app and crashes the next run decision
    with ``KeyError`` on the vanished app name."""
    report = run_colocation(
        "vessel", ExperimentConfig(seed=seed),
        l_specs=[("memcached", "mc", 2.0)], b_specs=("linpack",),
        churn=churn)
    assert report.uncontained == []
    assert report.completed["mc"] > 0
