"""The shared memory address space (SMAS, §4.1, Figure 5).

One SMAS per scheduling domain, created by the manager with a single big
mmap and carved into:

* thirteen *uProcess slots* — a data area (data/heap/stacks, pkey = the
  slot's key, read-write for the owner only) and a text area (pkey = the
  slot's key but page permissions executable-only, so any uProcess can
  *execute* it — necessary for the call gate — while loads/stores are
  stopped by MPK);
* the *call gate* and *runtime text* — executable-only as well;
* the *message pipe* — readable by every uProcess, writable only in
  runtime mode; carries CPUID_TO_TASK_MAP, CPUID_TO_RUNTIME_MAP and the
  function-pointer vector the call gate dispatches through;
* the *runtime region* — runtime data and the per-core runtime stacks,
  invisible to uProcesses.

Keys: slots use pkeys 1..13, the runtime region pkey 14, the message pipe
pkey 15, and pkey 0 is left alone so each kProcess's unmanaged memory
keeps working (§4.1 footnote 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.hardware.mpk import (
    AccessKind,
    AddressSpaceMap,
    MpkFault,
    Permission,
    PkruRegister,
    Region,
)
from repro.kernel.syscalls import SyscallLayer

MAX_UPROCESSES = 13
RUNTIME_PKEY = 14
PIPE_PKEY = 15

SMAS_BASE = 0x7000_0000_0000
SLOT_DATA_SIZE = 1 << 30          # 1 GiB of data/heap/stack per slot
SLOT_TEXT_SIZE = 64 << 20         # 64 MiB of text per slot
CALLGATE_TEXT_SIZE = 4096
RUNTIME_TEXT_SIZE = 16 << 20
PIPE_SIZE = 1 << 20
RUNTIME_REGION_SIZE = 256 << 20
RUNTIME_STACK_SIZE = 64 << 10     # per-core runtime stack


class SmasError(RuntimeError):
    """Invalid SMAS operation (slot exhaustion, double-free, ...)."""


@dataclass
class SmasSlot:
    """One uProcess's share of the SMAS."""

    index: int
    pkey: int
    data_region: Region
    text_region: Optional[Region] = None
    in_use: bool = False


class MessagePipe:
    """The unidirectional runtime->uProcess channel (read-only to apps).

    Every mutating method takes the PKRU of the writer and enforces the
    MPK write permission, so tests can demonstrate that applications
    cannot tamper with the maps or the function-pointer vector.
    """

    def __init__(self, region: Region) -> None:
        self.region = region
        #: core id -> currently mapped task (UThread) — Figure 6's
        #: CPUID_TO_TASK_MAP
        self.cpuid_to_task: Dict[int, object] = {}
        #: core id -> runtime stack pointer — CPUID_TO_RUNTIME_MAP
        self.cpuid_to_runtime_rsp: Dict[int, int] = {}
        #: name -> privileged runtime function (replaces the PLT, §4.2)
        self.func_vector: Dict[str, object] = {}

    def _check_write(self, pkru: PkruRegister) -> None:
        if not pkru.allows(self.region.pkey, AccessKind.WRITE):
            raise MpkFault(self.region.start, AccessKind.WRITE,
                           self.region.pkey)

    def set_task(self, pkru: PkruRegister, core_id: int, task) -> None:
        self._check_write(pkru)
        self.cpuid_to_task[core_id] = task

    def set_runtime_rsp(self, pkru: PkruRegister, core_id: int,
                        rsp: int) -> None:
        self._check_write(pkru)
        self.cpuid_to_runtime_rsp[core_id] = rsp

    def register_function(self, pkru: PkruRegister, name: str, fn) -> None:
        self._check_write(pkru)
        self.func_vector[name] = fn


class Smas:
    """The shared address space of one scheduling domain."""

    def __init__(self, syscalls: SyscallLayer, num_cores: int,
                 name: str = "smas") -> None:
        self.name = name
        self.syscalls = syscalls
        self.num_cores = num_cores
        self.aspace = AddressSpaceMap(name=name)
        self.slots: List[SmasSlot] = []

        cursor = SMAS_BASE

        # --- uProcess slots (mapped now, keyed at slot allocation) ----
        for index in range(MAX_UPROCESSES):
            data = syscalls.mmap(self.aspace, cursor, SLOT_DATA_SIZE,
                                 Permission.rw(), name=f"slot{index}/data")
            cursor += SLOT_DATA_SIZE
            self.slots.append(SmasSlot(index=index, pkey=index + 1,
                                       data_region=data, text_region=None))

        for index in range(MAX_UPROCESSES):
            text = syscalls.mmap(self.aspace, cursor, SLOT_TEXT_SIZE,
                                 Permission.exec_only(),
                                 name=f"slot{index}/text")
            cursor += SLOT_TEXT_SIZE
            self.slots[index].text_region = text

        # --- call gate + runtime text (executable-only, §4.1) ----------
        self.callgate_text = syscalls.mmap(
            self.aspace, cursor, CALLGATE_TEXT_SIZE,
            Permission.exec_only(), name="callgate/text")
        cursor += CALLGATE_TEXT_SIZE
        self.runtime_text = syscalls.mmap(
            self.aspace, cursor, RUNTIME_TEXT_SIZE,
            Permission.exec_only(), name="runtime/text")
        cursor += RUNTIME_TEXT_SIZE

        # --- message pipe ----------------------------------------------
        self.pipe_region = syscalls.mmap(
            self.aspace, cursor, PIPE_SIZE, Permission.rw(), name="pipe")
        cursor += PIPE_SIZE

        # --- runtime region ---------------------------------------------
        self.runtime_region = syscalls.mmap(
            self.aspace, cursor, RUNTIME_REGION_SIZE, Permission.rw(),
            name="runtime/data")
        self.limit = cursor + RUNTIME_REGION_SIZE

        # --- protection keys --------------------------------------------
        # Allocate the 15 keys (1..15); the manager binds them.
        allocated = [syscalls.pkey_alloc(self.aspace) for _ in range(15)]
        if allocated != list(range(1, 16)):
            raise SmasError(f"unexpected pkey allocation order: {allocated}")
        for slot in self.slots:
            syscalls.pkey_mprotect(self.aspace, slot.data_region, slot.pkey)
            # The text segment shares the slot's key; exec-only page
            # permissions make it callable-but-unreadable (§4.1).
            syscalls.pkey_mprotect(self.aspace, slot.text_region, slot.pkey)
        syscalls.pkey_mprotect(self.aspace, self.callgate_text, RUNTIME_PKEY)
        syscalls.pkey_mprotect(self.aspace, self.runtime_text, RUNTIME_PKEY)
        syscalls.pkey_mprotect(self.aspace, self.runtime_region, RUNTIME_PKEY)
        syscalls.pkey_mprotect(self.aspace, self.pipe_region, PIPE_PKEY)

        self.pipe = MessagePipe(self.pipe_region)

        # Per-core runtime stacks live at the top of the runtime region.
        stack_base = self.runtime_region.start
        for core_id in range(num_cores):
            rsp = stack_base + (core_id + 1) * RUNTIME_STACK_SIZE
            self.pipe.set_runtime_rsp(self.runtime_pkru(), core_id, rsp)

    # ------------------------------------------------------------------
    # PKRU values
    # ------------------------------------------------------------------
    #: memoized app-mode PKRU *values* per pkey (the bitmap build walks
    #: all 16 keys and this runs once per context switch); instances are
    #: still constructed fresh because PkruRegister is mutable
    _APP_PKRU_VALUES: Dict[int, int] = {}

    @staticmethod
    def runtime_pkru() -> PkruRegister:
        """Privileged mode: every key accessible."""
        return PkruRegister(0)

    @staticmethod
    def app_pkru(pkey: int) -> PkruRegister:
        """uProcess mode: own slot RW, message pipe RO, all else denied."""
        value = Smas._APP_PKRU_VALUES.get(pkey)
        if value is None:
            value = PkruRegister.build({pkey: True, PIPE_PKEY: False}).value
            Smas._APP_PKRU_VALUES[pkey] = value
        return PkruRegister(value)

    # ------------------------------------------------------------------
    # Slot management
    # ------------------------------------------------------------------
    def allocate_slot(self) -> SmasSlot:
        for slot in self.slots:
            if not slot.in_use:
                slot.in_use = True
                return slot
        raise SmasError(
            f"scheduling domain full: {MAX_UPROCESSES} uProcesses already "
            "exist; create another domain (§4.1)"
        )

    def release_slot(self, slot: SmasSlot) -> None:
        if not slot.in_use:
            raise SmasError(f"slot {slot.index} is not in use")
        slot.in_use = False

    def revoke_slot(self, slot: SmasSlot) -> None:
        """Rebind a dead slot's regions to pkey 0 (libmpk-style revocation).

        Until the slot is reallocated and
        :meth:`Manager.create_uprocess` rebinds the slot's own key, no
        app-mode PKRU grants access to the stale mappings, so a freed
        slot cannot be read through a lingering key grant.
        """
        self.syscalls.pkey_mprotect(self.aspace, slot.data_region, 0)
        if slot.text_region is not None:
            self.syscalls.pkey_mprotect(self.aspace, slot.text_region, 0)

    def slots_in_use(self) -> int:
        return sum(1 for slot in self.slots if slot.in_use)
