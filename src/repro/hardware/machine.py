"""Cores and machine topology.

A :class:`Core` is the execution resource every scheduler in this repo
multiplexes.  It runs one *segment* of work at a time (a request, a slice
of batch work, a stretch of runtime spinning, a kernel pipeline phase...),
attributes elapsed time to accounting categories (``app`` / ``runtime`` /
``kernel`` / ``idle``), and supports preemption: cancelling the in-flight
segment returns how much work was left, which the scheduler re-queues.

Cores also carry the architectural state the functional layer needs: the
PKRU register (MPK) and the user/kernel/runtime mode that the call gate
and the switch path set.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Optional

from repro.sim.engine import SimulationError, Simulator
from repro.hardware.mpk import PkruRegister
from repro.hardware.timing import CostModel
from repro.obs.ledger import NULL_LEDGER, OpLedger


class CoreMode(enum.Enum):
    """Privilege mode of a core, as the uProcess design sees it."""

    USER = "user"          #: running application code
    RUNTIME = "runtime"    #: inside the userspace privileged mode (call gate)
    KERNEL = "kernel"      #: trapped into the Linux kernel
    IDLE = "idle"          #: UMWAIT / halted


class Core:
    """One hardware thread."""

    def __init__(self, sim: Simulator, core_id: int) -> None:
        self.sim = sim
        self.id = core_id
        self.pkru = PkruRegister(PkruRegister.ALL_DENIED_EXCEPT_0)
        self.mode = CoreMode.IDLE
        #: elapsed ns per accounting category ("app:<name>", "runtime",
        #: "kernel", "idle", ...); Figures 1b and 2 read these
        self.buckets: Dict[str, int] = {}
        self._category = "idle"
        self._since = sim.now
        #: the one completion handle, re-armed for every segment (pending
        #: exactly while a segment runs; its ``time`` is the segment end)
        self._completion = sim.handle(self._complete)
        self._on_done: Optional[Callable[..., None]] = None
        self._on_done_args: tuple = ()
        #: opaque scheduler-owned state (current thread, app, ...)
        self.context: Any = None
        #: optional execution tracer (repro.sim.trace.Tracer)
        self.tracer = None
        #: True once the core is lost to an uncontained fault
        self.wedged = False

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _switch_category(self, category: str) -> None:
        # Fires on every segment start/stop of every core.
        now = self.sim.now
        elapsed = now - self._since
        if elapsed > 0:
            buckets = self.buckets
            previous = self._category
            buckets[previous] = buckets.get(previous, 0) + elapsed
            if self.tracer is not None:
                self.tracer.record(self.id, self._since, now, previous)
        self._category = category
        self._since = now

    def settle(self) -> None:
        """Flush accrued time in the current category into the buckets."""
        self._switch_category(self._category)

    @property
    def category(self) -> str:
        return self._category

    # ------------------------------------------------------------------
    # Segment execution
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._completion.seq != 0

    def run(self, category: str, duration_ns: int,
            on_done: Optional[Callable[..., None]] = None, *args: Any) -> None:
        """Execute ``duration_ns`` of work attributed to ``category``.

        ``on_done(*args)`` fires when the segment completes (not if
        preempted).  Passing the callback's arguments here, rather than
        a closure over them, lets a hot caller hand over a bound method
        without allocating a function per segment.  Starting a segment
        while one is in flight is a scheduler bug.
        """
        if self.wedged:
            raise SimulationError(f"core {self.id} is wedged")
        completion = self._completion
        if completion.seq:
            raise SimulationError(f"core {self.id} is already busy")
        if duration_ns < 0:
            raise SimulationError(f"negative duration {duration_ns}")
        now = self.sim.now
        if now == self._since:
            # Nothing accrued since the last switch (a completion that
            # starts the next segment at once): _switch_category would
            # record nothing, so only the category changes.
            self._category = category
        else:
            self._switch_category(category)
        self._on_done = on_done
        self._on_done_args = args
        self.sim.rearm(completion, duration_ns)

    def preempt(self) -> int:
        """Cancel the in-flight segment; returns remaining nanoseconds."""
        completion = self._completion
        if not completion.seq:
            raise SimulationError(f"core {self.id} has no segment to preempt")
        completion.cancel()
        remaining = completion.time - self.sim.now
        self._switch_category("idle")
        return max(0, remaining)

    def set_idle(self) -> None:
        """Mark the core idle (UMWAIT); it must not have a running segment."""
        if self._completion.seq:
            raise SimulationError(f"core {self.id} is busy; preempt() first")
        self._switch_category("idle")
        self.mode = CoreMode.IDLE

    def wedge(self) -> None:
        """Lose the core to an uncontained fault.

        Any in-flight segment is abandoned, all further time accrues to
        the "wedged" category, and :meth:`run` refuses new segments.
        Used by fault-injection ablations to make the cost of *missing*
        containment visible in the accounting buckets.
        """
        self._completion.cancel()
        self.wedged = True
        self._switch_category("wedged")
        self.mode = CoreMode.KERNEL

    def _complete(self) -> None:
        # The engine disarmed the handle before this call, so on_done
        # may start the next segment at once.  The switch to "idle" is
        # _switch_category's body, inlined: this runs once per segment.
        now = self.sim.now
        elapsed = now - self._since
        if elapsed > 0:
            buckets = self.buckets
            previous = self._category
            buckets[previous] = buckets.get(previous, 0) + elapsed
            if self.tracer is not None:
                self.tracer.record(self.id, self._since, now, previous)
        self._category = "idle"
        self._since = now
        on_done = self._on_done
        if on_done is not None:
            on_done(*self._on_done_args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Core {self.id} {self._category} mode={self.mode.value}>"


class Machine:
    """Cores plus the shared controllers every scheduler uses."""

    def __init__(self, sim: Simulator, costs: CostModel, num_cores: int,
                 membus_gbps: float = 40.0,
                 ledger: Optional[OpLedger] = None,
                 flight=None) -> None:
        from repro.hardware.ipi import IpiController
        from repro.hardware.membus import MemoryBus
        from repro.hardware.uintr import UintrController
        from repro.obs.flight import NULL_FLIGHT

        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive: {num_cores}")
        self.sim = sim
        self.costs = costs
        self.ledger = ledger or NULL_LEDGER
        #: per-request lifecycle recorder; systems built on this machine
        #: pick it up at construction time (NULL_FLIGHT records nothing)
        self.flight = flight or NULL_FLIGHT
        self.cores: List[Core] = [Core(sim, i) for i in range(num_cores)]
        self.uintr = UintrController(sim, costs, ledger=self.ledger)
        self.ipi = IpiController(sim, costs, ledger=self.ledger)
        self.membus = MemoryBus(sim, membus_gbps)
        for core in self.cores:
            core.pkru.attach_ledger(self.ledger, core.id)

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def attach_tracer(self, tracer) -> None:
        """Record every core's activity spans into ``tracer``."""
        for core in self.cores:
            core.tracer = tracer

    def settle_all(self) -> None:
        for core in self.cores:
            core.settle()

    def total_accounting(self) -> Dict[str, int]:
        """Every core's buckets, summed per category."""
        self.settle_all()
        total: Dict[str, int] = {}
        for core in self.cores:
            for category, elapsed in core.buckets.items():
                total[category] = total.get(category, 0) + elapsed
        return total
