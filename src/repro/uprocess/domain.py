"""Scheduling domains (§3.1, §4.1).

A domain groups up to 13 uProcesses that share one SMAS and one set of
CPU cores, and owns the machinery that mediates between them: the call
gate, the per-core command queues, the userspace switch engine, and the
program loader.  Machines with more applications use several domains.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.hardware.machine import Core
from repro.hardware.timing import CostModel
from repro.kernel.syscalls import SyscallLayer
from repro.obs.ledger import OpLedger
from repro.uprocess.callgate import CallGate
from repro.uprocess.loader import ProgramLoader
from repro.uprocess.smas import Smas
from repro.uprocess.switch import UserspaceSwitch
from repro.uprocess.uproc import UProcess
from repro.uprocess.usignals import Command, CommandKind, CommandQueues


class SchedulingDomain:
    """A set of uProcesses timesharing a set of cores through one SMAS."""

    def __init__(self, name: str, cores: List[Core],
                 syscalls: SyscallLayer, costs: CostModel,
                 rng: Optional[random.Random] = None,
                 ledger: Optional[OpLedger] = None) -> None:
        self.name = name
        self.cores = cores
        self.syscalls = syscalls
        self.costs = costs
        #: domain machinery charges into the same ledger the syscall
        #: layer uses unless the caller wires a different one
        self.ledger = ledger if ledger is not None else syscalls.ledger
        self.smas = Smas(syscalls, num_cores=max(c.id for c in cores) + 1,
                         name=f"{name}/smas")
        self.queues = CommandQueues([core.id for core in cores])
        self.gate = CallGate(self.smas, ledger=self.ledger)
        self.switcher = UserspaceSwitch(self.smas, costs,
                                        rng or random.Random(0),
                                        ledger=self.ledger)
        self.loader = ProgramLoader(self.smas, self.gate)
        self.uprocs: List[UProcess] = []
        self.faults_shielded = 0
        #: syscall-proxy runtime serving this domain, if any; reap()
        #: notifies it so proxied descriptors are closed kernel-side
        self.runtime = None

    # ------------------------------------------------------------------
    def cores_running(self, uproc: UProcess) -> List[int]:
        """Core ids whose current task belongs to ``uproc``."""
        running = []
        for core_id, task in self.smas.pipe.cpuid_to_task.items():
            if task is not None and task.uproc is uproc:
                running.append(core_id)
        return running

    # ------------------------------------------------------------------
    # Fault shielding (§4.3)
    # ------------------------------------------------------------------
    def handle_fault(self, core_id: int) -> Optional[UProcess]:
        """A fault signal arrived on ``core_id``: identify the faulty
        uProcess via CPUID_TO_TASK_MAP and broadcast kill commands to all
        cores running it.  Returns the condemned uProcess."""
        task = self.smas.pipe.cpuid_to_task.get(core_id)
        if task is None:
            return None
        uproc = task.uproc
        self.queues.broadcast_kill(uproc, self.cores_running(uproc))
        self.faults_shielded += 1
        return uproc

    def reap(self, uproc: UProcess) -> None:
        """Tear down ``uproc`` and reclaim everything it held.

        Idempotent: safe to call from the kill-command path, the
        SIGSEGV containment path, and explicit destroy in any order.
        Reclaims, in turn, the threads and descriptor map (terminate),
        stale queued commands, proxied kernel descriptors (via the
        attached runtime), the SMAS slot with its pkey revoked to 0
        until the slot is reallocated, and finally the boot kProcess
        itself (killed and unlinked from the manager's child list) —
        under create/destroy churn every one of these would otherwise
        accumulate per departed tenant.
        """
        if uproc.alive:
            uproc.terminate()
        self.queues.purge_uproc(uproc)
        if self.runtime is not None:
            self.runtime.release_uprocess(uproc)
        if uproc.slot.in_use:
            self.smas.revoke_slot(uproc.slot)
            self.smas.release_slot(uproc.slot)
            self.ledger.count_op("uproc_reap", domain="uproc")
        kproc = uproc.boot_kprocess
        if kproc.alive:
            kproc.kill()
        parent = kproc.parent
        if parent is not None and kproc in parent.children:
            parent.children.remove(kproc)
        # A fully reaped uProcess leaves the domain roster; dead-but-
        # unreaped ones stay, which is exactly what the uncontained()
        # audit looks for.
        if uproc in self.uprocs:
            self.uprocs.remove(uproc)

    def process_commands(self, core_id: int) -> List[Command]:
        """Consume the core's queue in privileged mode.

        KILL commands terminate the uProcess and release its slot; other
        command kinds are returned to the caller (the scheduler) to act
        on.
        """
        queue = self.queues.of(core_id)
        remaining: List[Command] = []
        while True:
            command = queue.pop()
            if command is None:
                break
            if command.kind is CommandKind.KILL_UPROCESS:
                uproc = command.payload
                if uproc.alive or uproc.slot.in_use:
                    self.reap(uproc)
            else:
                remaining.append(command)
        return remaining

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SchedulingDomain {self.name} uprocs={len(self.uprocs)} "
                f"cores={[c.id for c in self.cores]}>")
