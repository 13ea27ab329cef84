"""The kernel-mediated core-reallocation pipeline (Figure 3).

This is *the* overhead the paper attacks.  To move a core from App-A to
App-B, Caladan's scheduler issues an ioctl; the kernel sends an IPI to the
victim core; the victim traps, a SIGUSR lets App-A's userspace runtime
save its state, the kernel updates its structures and switches page
tables, and finally the core restores into App-B.  The phases below sum
to 5.3 µs (§2.1) and are attributed to ``kernel``/``runtime`` accounting
categories so Figures 1b and 2 can show where cycles go.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.hardware.machine import Core
from repro.hardware.timing import CostModel
from repro.obs.ledger import NULL_LEDGER, OpLedger


@dataclass(frozen=True)
class ReallocPhase:
    """One phase of the Figure 3 timeline."""

    name: str
    duration_ns: int
    #: accounting category ('kernel' or 'runtime')
    category: str


class KernelReallocPipeline:
    """Executes the Figure 3 pipeline on a victim core."""

    def __init__(self, costs: CostModel,
                 ledger: Optional[OpLedger] = None) -> None:
        self.costs = costs
        self.ledger = ledger or NULL_LEDGER
        self.executions: int = 0

    def phases(self) -> List[ReallocPhase]:
        """The timeline, in execution order."""
        c = self.costs
        return [
            ReallocPhase("scheduler ioctl", c.caladan_ioctl_ns, "kernel"),
            ReallocPhase("IPI delivery", c.caladan_ipi_ns, "kernel"),
            ReallocPhase("kernel trap + SIGUSR", c.caladan_trap_sigusr_ns,
                         "kernel"),
            ReallocPhase("userspace state save", c.caladan_user_save_ns,
                         "runtime"),
            ReallocPhase("kernel context switch", c.caladan_kernel_switch_ns,
                         "kernel"),
            ReallocPhase("restore to new app", c.caladan_restore_ns,
                         "kernel"),
        ]

    def total_ns(self) -> int:
        return sum(phase.duration_ns for phase in self.phases())

    def run(self, core: Core, on_done: Callable[[], None],
            rng: Optional[random.Random] = None) -> None:
        """Occupy ``core`` for the whole pipeline, then call ``on_done``.

        The core must be free (the caller preempts the victim first and
        re-queues its remaining work).  Kernel jitter is applied to the
        last phase when an RNG is provided.
        """
        phases = self.phases()
        if rng is not None:
            jitter = self.costs.kernel_jitter_ns(rng)
            if jitter:
                last = phases[-1]
                phases[-1] = ReallocPhase(last.name,
                                          last.duration_ns + jitter,
                                          last.category)
        self.executions += 1
        self._run_phase(core, phases, 0, on_done)

    def _run_phase(self, core: Core, phases: List[ReallocPhase], index: int,
                   on_done: Callable[[], None]) -> None:
        if index >= len(phases):
            on_done()
            return
        phase = phases[index]
        if self.ledger.enabled:
            self.ledger.charge(f"realloc:{phase.name}", phase.duration_ns,
                               core=core.id, domain="kernel")
        core.run(phase.category, phase.duration_ns,
                 self._run_phase, core, phases, index + 1, on_done)
