"""The VESSEL manager (§5.1).

A standalone auxiliary program: it creates the SMAS, processes user
commands to create and destroy uProcesses, and owns the address space of
every slot.  Creating a uProcess forks a booting kProcess, binds it to a
core, associates the slot with its protection key (pkey_mprotect +
mprotect), and sends the booting program an ``init`` command; the booting
program then invokes the loader to install the real application.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.hardware.machine import Core
from repro.hardware.timing import CostModel
from repro.kernel.kprocess import KProcess
from repro.kernel.signals import KernelSignals, SIGSEGV
from repro.kernel.syscalls import SyscallLayer
from repro.obs.ledger import OpLedger
from repro.uprocess.domain import SchedulingDomain
from repro.uprocess.loader import ProgramImage
from repro.uprocess.smas import SmasError
from repro.uprocess.uproc import UProcess, UProcessState


class Manager:
    """Creates domains and manages uProcess lifecycles."""

    def __init__(self, syscalls: Optional[SyscallLayer] = None,
                 signals: Optional[KernelSignals] = None,
                 costs: Optional[CostModel] = None,
                 rng: Optional[random.Random] = None,
                 ledger: Optional[OpLedger] = None) -> None:
        self.syscalls = syscalls or SyscallLayer(costs, ledger=ledger)
        self.signals = signals
        self.costs = costs or self.syscalls.costs
        #: one operation ledger shared by the syscall layer and every
        #: domain this manager creates
        self.ledger = ledger if ledger is not None else self.syscalls.ledger
        self.rng = rng or random.Random(0)
        self.kprocess = KProcess("vessel-manager")
        self.domains: List[SchedulingDomain] = []

    # ------------------------------------------------------------------
    def create_domain(self, cores: List[Core],
                      name: str = "") -> SchedulingDomain:
        name = name or f"domain{len(self.domains)}"
        domain = SchedulingDomain(name, cores, self.syscalls, self.costs,
                                  self.rng, ledger=self.ledger)
        self.domains.append(domain)
        return domain

    # ------------------------------------------------------------------
    def create_uprocess(self, domain: SchedulingDomain, image: ProgramImage,
                        name: str = "",
                        boot_core: Optional[Core] = None) -> UProcess:
        """The §5.1 creation flow, compressed to its semantic steps."""
        slot = domain.smas.allocate_slot()
        try:
            # Fork the booting kProcess and pin it; it maps the SMAS into
            # its own address space (shared AddressSpaceMap reference) and
            # polls its FIFO queue for the init command.
            kproc = self.syscalls.fork(self.kprocess,
                                       name or image.name)
            core = boot_core or domain.cores[0]
            self.syscalls.sched_setaffinity(kproc, core.id)

            # The slot's regions were keyed when the SMAS was built; the
            # manager (re)asserts the binding for this uProcess.  (After a
            # destroy the regions sit revoked on pkey 0, so reallocating
            # the slot must rebind both.)
            self.syscalls.pkey_mprotect(domain.smas.aspace,
                                        slot.data_region, slot.pkey)
            self.syscalls.pkey_mprotect(domain.smas.aspace,
                                        slot.text_region, slot.pkey)

            uproc = UProcess(name or image.name, slot, domain.smas, kproc)

            # Fault shielding (§4.3): the runtime registers fault-signal
            # handlers *before* the program is installed.
            if self.signals is not None:
                self.signals.register(
                    kproc, SIGSEGV,
                    lambda proc, sig, d=domain, c=core: d.handle_fault(c.id),
                )

            # "init" command: the booting program invokes the loader.
            domain.loader.load(uproc, image)
            uproc.state = UProcessState.RUNNING
            domain.uprocs.append(uproc)
            return uproc
        except Exception:
            domain.smas.release_slot(slot)
            raise

    def destroy_uprocess(self, domain: SchedulingDomain,
                         uproc: UProcess) -> int:
        """Send kill commands to every core running ``uproc`` (§5.1).

        The cores consume the command at their next privileged-mode entry;
        if the uProcess is not running anywhere it is reaped immediately.
        Returns the number of kill commands queued.
        """
        if uproc not in domain.uprocs:
            raise SmasError(f"{uproc.name} is not in domain {domain.name}")
        running = domain.cores_running(uproc)
        if not running:
            domain.reap(uproc)
            return 0
        return domain.queues.broadcast_kill(uproc, running)
