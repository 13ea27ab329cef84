"""Tests for the manager: creation, destruction, cloning (§5.1, §5.3)."""

import pytest

from repro.uprocess.loader import ProgramImage
from repro.uprocess.smas import MAX_UPROCESSES, SmasError
from repro.uprocess.threads import UThread
from repro.uprocess.uproc import UProcessState
from repro.uprocess.usignals import Command, CommandKind


def test_create_uprocess_full_flow(manager, domain):
    up = manager.create_uprocess(domain, ProgramImage("svc"))
    assert up.state is UProcessState.RUNNING
    assert up.slot.in_use
    assert up in domain.uprocs
    # a booting kProcess was forked from the manager and pinned
    assert up.boot_kprocess.parent is manager.kprocess
    assert up.boot_kprocess.bound_core is not None


def test_thirteen_uprocess_limit(manager, domain):
    for i in range(MAX_UPROCESSES):
        manager.create_uprocess(domain, ProgramImage(f"app{i}"))
    with pytest.raises(SmasError):
        manager.create_uprocess(domain, ProgramImage("overflow"))


def test_failed_load_releases_slot(manager, domain):
    from repro.uprocess.loader import CodeInspectionError
    evil = ProgramImage("evil", instructions=["WRPKRU"])
    with pytest.raises(CodeInspectionError):
        manager.create_uprocess(domain, evil)
    assert domain.smas.slots_in_use() == 0


def test_destroy_idle_uprocess_immediate(manager, domain):
    up = manager.create_uprocess(domain, ProgramImage("svc"))
    queued = manager.destroy_uprocess(domain, up)
    assert queued == 0
    assert not up.alive
    assert not up.slot.in_use


def test_destroy_running_uprocess_is_lazy(manager, domain, machine):
    up = manager.create_uprocess(domain, ProgramImage("svc"))
    thread = UThread(up)
    domain.switcher.install(machine.cores[0], thread)
    queued = manager.destroy_uprocess(domain, up)
    assert queued == 1
    assert up.alive  # not yet: the core must enter privileged mode
    domain.process_commands(machine.cores[0].id)
    assert not up.alive


def test_destroy_foreign_uprocess_rejected(manager, domain):
    other_domain = manager.create_domain(domain.cores, name="other")
    up = manager.create_uprocess(other_domain, ProgramImage("x"))
    with pytest.raises(SmasError):
        manager.destroy_uprocess(domain, up)


def test_uprocesses_have_distinct_pkeys(manager, domain):
    ups = [manager.create_uprocess(domain, ProgramImage(f"u{i}"))
           for i in range(5)]
    assert len({u.pkey for u in ups}) == 5


def test_fault_handler_registered_at_creation(manager, domain):
    up = manager.create_uprocess(domain, ProgramImage("svc"))
    key = (up.boot_kprocess.pid, 11)  # SIGSEGV
    assert key in manager.signals._handlers


def test_destroy_revokes_pkey_to_default(manager, domain):
    up = manager.create_uprocess(domain, ProgramImage("svc"))
    assert up.slot.data_region.pkey == up.pkey
    manager.destroy_uprocess(domain, up)
    # Revoked regions fall back to pkey 0 so a stale stub branching into
    # the freed slot faults instead of touching the next tenant's memory.
    assert up.slot.data_region.pkey == 0
    assert up.slot.text_region.pkey == 0


def test_create_destroy_create_reuses_slot_at_limit(manager, domain):
    """Regression: destroy must return the slot, pkey, and regions to the
    allocator so churn at MAX_UPROCESSES never wedges the domain."""
    ups = [manager.create_uprocess(domain, ProgramImage(f"app{i}"))
           for i in range(MAX_UPROCESSES)]
    victim = ups[4]
    slot_index, pkey = victim.slot.index, victim.pkey
    manager.destroy_uprocess(domain, victim)
    assert not victim.slot.in_use
    fresh = manager.create_uprocess(domain, ProgramImage("replacement"))
    assert fresh.slot.index == slot_index
    assert fresh.pkey == pkey
    assert fresh.slot.data_region.pkey == fresh.pkey
    assert fresh.slot.text_region.pkey == fresh.pkey
    # ...and the domain is full again.
    with pytest.raises(SmasError):
        manager.create_uprocess(domain, ProgramImage("overflow"))


def test_destroy_purges_queued_commands(manager, domain, machine):
    up = manager.create_uprocess(domain, ProgramImage("svc"))
    thread = UThread(up)
    domain.switcher.install(machine.cores[0], thread)
    domain.queues.of(machine.cores[0].id).push(
        Command(CommandKind.RUN_THREAD, thread))
    manager.destroy_uprocess(domain, up)  # lazy: queues destroy too
    domain.process_commands(machine.cores[0].id)
    assert not up.alive
    for queue in domain.queues.queues.values():
        for command in queue._queue:
            assert command.payload is not up
            assert getattr(command.payload, "uproc", None) is not up


def test_teardown_uprocess_reaps_without_core_round_trip(manager, domain,
                                                         machine):
    up = manager.create_uprocess(domain, ProgramImage("svc"))
    thread = UThread(up)
    domain.switcher.install(machine.cores[0], thread)
    domain.reap(up)
    # Unlike destroy_uprocess, reaping is the crash path: it reclaims
    # immediately, without waiting for the core to enter privileged mode.
    assert not up.alive
    assert not up.slot.in_use
    assert up.slot.data_region.pkey == 0
