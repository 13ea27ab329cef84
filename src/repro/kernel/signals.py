"""POSIX-signal posting and delivery.

Used in two places: Caladan's reallocation pipeline delivers a SIGUSR to
the victim application so its runtime saves state (Figure 3), and
uProcess's fault-shielding design (§4.3) registers fault-signal handlers
in the runtime and proxies them to the faulting uProcess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.sim.engine import Simulator
from repro.hardware.timing import CostModel
from repro.kernel.kprocess import KProcess
from repro.obs.ledger import NULL_LEDGER, OpLedger

SIGSEGV = 11
SIGUSR1 = 10
SIGTERM = 15
SIGKILL = 9

#: signals whose default disposition kills the process
FATAL_BY_DEFAULT = frozenset({SIGSEGV, SIGTERM, SIGKILL})


@dataclass
class Signal:
    signo: int
    value: int = 0
    tid: Optional[int] = None


SignalHandler = Callable[[KProcess, Signal], None]


class KernelSignals:
    """Registers handlers and delivers signals with the kernel-path delay."""

    def __init__(self, sim: Simulator, costs: CostModel,
                 ledger: Optional[OpLedger] = None) -> None:
        self.sim = sim
        self.costs = costs
        self.ledger = ledger or NULL_LEDGER
        self._handlers: Dict[Tuple[int, int], SignalHandler] = {}
        #: pid -> process, for the churn audit: a handler whose owner is
        #: dead and was never unregistered is a teardown leak
        self._owners: Dict[int, KProcess] = {}
        self.delivered: int = 0
        self.killed: int = 0

    def register(self, proc: KProcess, signo: int,
                 handler: SignalHandler) -> None:
        """sigaction() analogue.  SIGKILL cannot be caught."""
        if signo == SIGKILL:
            raise ValueError("SIGKILL cannot be caught")
        self._handlers[(proc.pid, signo)] = handler
        self._owners[proc.pid] = proc

    def unregister(self, proc: KProcess, signo: int) -> None:
        """Drop a handler at teardown.  Without this, churned processes
        leave one table entry each — pids are never reused, so the table
        grows without bound.  Safe to call for a never-registered pair."""
        self._handlers.pop((proc.pid, signo), None)
        if not any(pid == proc.pid for pid, _ in self._handlers):
            self._owners.pop(proc.pid, None)

    def handler_count(self) -> int:
        """Installed (pid, signo) handlers, live owners or not."""
        return len(self._handlers)

    def stale_handlers(self) -> list:
        """(pid, signo) pairs whose owning process is dead — entries a
        clean teardown should have unregistered."""
        return sorted((pid, signo) for (pid, signo) in self._handlers
                      if not self._owners[pid].alive)

    def post(self, proc: KProcess, signal: Signal) -> None:
        """Queue ``signal`` for delivery after the kernel signal path."""
        self.sim.post(self.costs.signal_deliver_ns, self._deliver,
                      proc, signal)

    def _deliver(self, proc: KProcess, signal: Signal) -> None:
        if not proc.alive:
            return
        self.delivered += 1
        if self.ledger.enabled:
            self.ledger.charge(f"signal_deliver:{signal.signo}",
                               self.costs.signal_deliver_ns, domain="kernel")
        handler = self._handlers.get((proc.pid, signal.signo))
        if handler is not None and signal.signo != SIGKILL:
            handler(proc, signal)
            return
        if signal.signo in FATAL_BY_DEFAULT:
            # No handler installed: the kernel's default action takes the
            # whole kProcess down — the uncontained outcome fault
            # shielding (§4.3) exists to prevent.
            proc.kill()
            self.killed += 1
            if self.ledger.enabled:
                self.ledger.count_op(f"fault:default_kill:{signal.signo}",
                                     domain="fault")
