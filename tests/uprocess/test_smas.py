"""Tests for the SMAS layout, key assignment, and the message pipe."""

import pytest

from repro.hardware.mpk import AccessKind, MpkFault, Permission
from repro.kernel.syscalls import SyscallLayer
from repro.uprocess.smas import (
    MAX_UPROCESSES,
    PIPE_PKEY,
    RUNTIME_PKEY,
    Smas,
    SmasError,
)


@pytest.fixture
def smas(costs):
    return Smas(SyscallLayer(costs), num_cores=4)


def test_thirteen_slots(smas):
    assert len(smas.slots) == MAX_UPROCESSES == 13


def test_slot_keys_are_1_through_13(smas):
    assert [slot.pkey for slot in smas.slots] == list(range(1, 14))


def test_special_keys(smas):
    assert smas.runtime_region.pkey == RUNTIME_PKEY == 14
    assert smas.pipe_region.pkey == PIPE_PKEY == 15
    assert smas.callgate_text.pkey == RUNTIME_PKEY


def test_regions_do_not_overlap(smas):
    regions = smas.aspace.regions()
    spans = sorted((r.start, r.end) for r in regions)
    for (a_start, a_end), (b_start, _) in zip(spans, spans[1:]):
        assert a_end <= b_start


def test_text_regions_exec_only(smas):
    for slot in smas.slots:
        assert slot.text_region.perms == Permission.exec_only()
    assert smas.callgate_text.perms == Permission.exec_only()
    assert smas.runtime_text.perms == Permission.exec_only()


def test_slot_allocation_and_exhaustion(smas):
    slots = [smas.allocate_slot() for _ in range(13)]
    assert len({s.index for s in slots}) == 13
    with pytest.raises(SmasError):
        smas.allocate_slot()


def test_release_slot_allows_reuse(smas):
    slot = smas.allocate_slot()
    smas.release_slot(slot)
    assert smas.allocate_slot() is slot


def test_release_unused_slot_rejected(smas):
    with pytest.raises(SmasError):
        smas.release_slot(smas.slots[0])


def test_app_pkru_grants_own_slot_rw(smas):
    pkru = Smas.app_pkru(3)
    assert pkru.allows(3, AccessKind.WRITE)
    assert not pkru.allows(4, AccessKind.READ)


def test_app_pkru_pipe_read_only(smas):
    pkru = Smas.app_pkru(3)
    assert pkru.allows(PIPE_PKEY, AccessKind.READ)
    assert not pkru.allows(PIPE_PKEY, AccessKind.WRITE)


def test_app_pkru_runtime_invisible(smas):
    pkru = Smas.app_pkru(3)
    assert not pkru.allows(RUNTIME_PKEY, AccessKind.READ)


def test_runtime_pkru_sees_everything(smas):
    pkru = Smas.runtime_pkru()
    for pkey in range(16):
        assert pkru.allows(pkey, AccessKind.WRITE)


def test_app_cannot_read_other_slot_via_map(smas):
    pkru = Smas.app_pkru(1)
    other = smas.slots[4].data_region
    with pytest.raises(MpkFault):
        smas.aspace.check_access(other.start, AccessKind.READ, pkru)


def test_app_can_access_own_slot_via_map(smas):
    pkru = Smas.app_pkru(1)
    own = smas.slots[0].data_region
    smas.aspace.check_access(own.start + 64, AccessKind.WRITE, pkru)


def test_any_app_can_fetch_callgate_text(smas):
    # §4.1: sharing the text region lets uProcesses invoke the call gate.
    for pkey in (1, 5, 13):
        smas.aspace.check_access(smas.callgate_text.start,
                                 AccessKind.EXECUTE, Smas.app_pkru(pkey))


def test_runtime_stacks_per_core(smas):
    stacks = {smas.pipe.cpuid_to_runtime_rsp[core] for core in range(4)}
    assert len(stacks) == 4
    for rsp in stacks:
        region = smas.aspace.find(rsp - 8)
        assert region is smas.runtime_region


# ----------------------------------------------------------------------
# Message pipe
# ----------------------------------------------------------------------
def test_pipe_writable_in_runtime_mode(smas):
    smas.pipe.set_task(Smas.runtime_pkru(), 0, "task")
    assert smas.pipe.cpuid_to_task[0] == "task"


def test_pipe_rejects_app_writes(smas):
    with pytest.raises(MpkFault):
        smas.pipe.set_task(Smas.app_pkru(2), 0, "evil")
    with pytest.raises(MpkFault):
        smas.pipe.register_function(Smas.app_pkru(2), "park", lambda: None)
    with pytest.raises(MpkFault):
        smas.pipe.set_runtime_rsp(Smas.app_pkru(2), 0, 0xBAD)


def test_slots_in_use_counter(smas):
    assert smas.slots_in_use() == 0
    smas.allocate_slot()
    assert smas.slots_in_use() == 1
