"""membench: the memory-intensive best-effort application (§6.1).

"Continually repeats two phases, memory access and calculation, to
simulate the behavior of current data-processing applications."  The
memory phase streams a block through the shared memory bus (the core
stalls for however long the bus takes under contention and throttling);
the compute phase is plain CPU work.

Progress is accounted in *uncontended-time units*: work is worth
``bytes / demand_rate`` plus its compute nanoseconds regardless of how
long it actually took, so ``app.useful_ns`` compares directly across
runs with different contention (the Figure 13 normalization).

Preemption is work-conserving: an interrupted iteration's remaining
bytes/compute are parked in the work object and the next ``start()``
resumes them — real threads do not restart their loop iteration when
descheduled, and schedulers that preempt frequently (VESSEL duty-cycles
at tens of microseconds) would otherwise be charged phantom losses.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.hardware.machine import Core
from repro.hardware.membus import MemoryBus
from repro.workloads.base import App, AppKind

DEFAULT_PHASE_BYTES = 384 << 10     # 384 KiB streamed per memory phase
DEFAULT_DEMAND_GBPS = 12.0          # one core's uncontended streaming rate
DEFAULT_COMPUTE_NS = 16_000         # 16 µs of compute per iteration
#: guard duration for the stall segment; the bus completion always
#: arrives first because rates never drop below capacity/streams
_STALL_GUARD_NS = 1 << 40


class _IterationState:
    """Progress of one (possibly interrupted) membench iteration."""

    __slots__ = ("remaining_bytes", "remaining_compute")

    def __init__(self, remaining_bytes: float, remaining_compute: int) -> None:
        self.remaining_bytes = remaining_bytes
        self.remaining_compute = remaining_compute


class MembenchRun:
    """In-flight membench iteration (memory phase, then compute phase)."""

    def __init__(self, work: "MembenchWork", core: Core,
                 on_done: Optional[Callable[..., None]], args: tuple,
                 state: _IterationState) -> None:
        self.work = work
        self.core = core
        self.on_done = on_done
        self.args = args
        self.active = True
        self.state = state
        self._transfer = None
        self._compute_started = 0
        self._in_compute = False
        if state.remaining_bytes > 0:
            self._start_memory_phase()
        else:
            self._start_compute_phase()

    # ------------------------------------------------------------------
    def _start_memory_phase(self) -> None:
        work = self.work
        # The core stalls (busy, attributed to the app) while the bus
        # drains the block; completion ends the stall.
        self.core.run(work.app.category, _STALL_GUARD_NS, None)
        self._transfer = work.bus.start_transfer(
            work.app.name, self.state.remaining_bytes, work.demand_gbps,
            self._memory_phase_done,
        )

    def _memory_phase_done(self) -> None:
        if not self.active:
            return
        self.work.app.useful_ns += int(self.state.remaining_bytes
                                       / self.work.demand_gbps)
        self.state.remaining_bytes = 0
        self._transfer = None
        self.core.preempt()  # end the stall segment (time already charged)
        self._start_compute_phase()

    def _start_compute_phase(self) -> None:
        self._in_compute = True
        self._compute_started = self.core.sim.now
        self.core.run(self.work.app.category,
                      self.state.remaining_compute, self._iteration_done)

    def _iteration_done(self) -> None:
        if not self.active:
            return
        self.active = False
        work = self.work
        work.app.useful_ns += self.state.remaining_compute
        work.iterations += 1
        if self.on_done is not None:
            self.on_done(*self.args)

    # ------------------------------------------------------------------
    def preempt(self) -> None:
        """Suspend the iteration; progress is credited and the remainder
        parked in the work object for the next start() to resume."""
        if not self.active:
            return
        self.active = False
        work = self.work
        if self._transfer is not None:
            transfer = self._transfer
            self._transfer = None
            remaining = work.bus.cancel_transfer(transfer)
            moved = transfer.total_bytes - remaining
            work.app.useful_ns += int(moved / work.demand_gbps)
            self.state.remaining_bytes = remaining
        if self.core.busy:
            self.core.preempt()
        if self._in_compute:
            elapsed = min(self.core.sim.now - self._compute_started,
                          self.state.remaining_compute)
            work.app.useful_ns += elapsed
            self.state.remaining_compute -= elapsed
        if (self.state.remaining_bytes > 0
                or self.state.remaining_compute > 0):
            work._interrupted.append(self.state)


class MembenchWork:
    """Endless memory/compute iterations for one B-app."""

    def __init__(self, app: App, bus: MemoryBus,
                 phase_bytes: int = DEFAULT_PHASE_BYTES,
                 demand_gbps: float = DEFAULT_DEMAND_GBPS,
                 compute_ns: int = DEFAULT_COMPUTE_NS) -> None:
        if phase_bytes <= 0 or demand_gbps <= 0 or compute_ns < 0:
            raise ValueError("membench parameters must be positive")
        self.app = app
        self.bus = bus
        self.phase_bytes = phase_bytes
        self.demand_gbps = demand_gbps
        self.compute_ns = compute_ns
        self.iterations = 0
        self._interrupted: List[_IterationState] = []

    def solo_gbps(self) -> float:
        """Average bandwidth of one uncontended, unthrottled thread.

        Below the demand rate because compute phases use no bandwidth.
        """
        mem_ns = self.phase_bytes / self.demand_gbps
        return self.demand_gbps * mem_ns / (mem_ns + self.compute_ns)

    def start(self, core: Core,
              on_done: Optional[Callable[..., None]] = None,
              *args: Any) -> MembenchRun:
        """Run (or resume) one iteration on ``core``; ``on_done(*args)``
        fires when it completes (not if preempted)."""
        if self._interrupted:
            state = self._interrupted.pop()
        else:
            state = _IterationState(float(self.phase_bytes), self.compute_ns)
        return MembenchRun(self, core, on_done, args, state)


def membench_app(bus: MemoryBus, name: str = "membench",
                 phase_bytes: int = DEFAULT_PHASE_BYTES,
                 demand_gbps: float = DEFAULT_DEMAND_GBPS,
                 compute_ns: int = DEFAULT_COMPUTE_NS) -> App:
    app = App(name, AppKind.BATCH)
    app.batch_work = MembenchWork(app, bus, phase_bytes, demand_gbps,
                                  compute_ns)
    return app
