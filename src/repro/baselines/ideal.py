"""The zero-overhead scheduler.

"An ideal CPU scheduler should ensure that L-apps always have sufficient
CPU cycles, and any unused CPU cycles of L-apps should be reallocated to
B-apps immediately, where the reallocation itself causes zero overhead"
(§2.1).  This system implements exactly that and is the normalization
reference for the total-normalized-throughput plots.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.hardware.machine import Core, Machine
from repro.sched.base import ColocationSystem
from repro.workloads.base import App, Request


class _CoreState:
    __slots__ = ("core", "kind", "batch_run", "batch_app")

    def __init__(self, core: Core) -> None:
        self.core = core
        self.kind: Optional[str] = None  # None | "L" | "B"
        self.batch_run = None
        self.batch_app: Optional[App] = None


class IdealSystem(ColocationSystem):
    """Instant, free core reallocation."""

    name = "ideal"

    def __init__(self, sim: Simulator, machine: Machine, rngs: RngStreams,
                 worker_cores: Optional[List[Core]] = None) -> None:
        if worker_cores is None:
            worker_cores = machine.cores  # no scheduler core needed
        super().__init__(sim, machine, rngs, worker_cores)
        self._cores: Dict[int, _CoreState] = {
            core.id: _CoreState(core) for core in self.worker_cores
        }
        #: pending requests across all L-apps, in arrival order
        self._pending: Deque[Request] = deque()
        self._batch_rr = 0
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("system already started")
        self._started = True
        for state in self._cores.values():
            self._fill(state)

    # ------------------------------------------------------------------
    def on_arrival(self, app: App, request: Request) -> None:
        popped = app.queue.pop()  # submit() just appended this request
        assert popped is request
        self._pending.append(request)
        state = self._find_idle() or self._find_batch()
        if state is not None:
            if state.kind == "B" and state.batch_run is not None:
                state.batch_run.preempt()  # free, instant
                state.batch_run = None
                state.batch_app = None
            state.kind = None
            self._fill(state)

    def _find_idle(self) -> Optional[_CoreState]:
        for state in self._cores.values():
            if state.kind is None and not state.core.busy:
                return state
        return None

    def _find_batch(self) -> Optional[_CoreState]:
        for state in self._cores.values():
            if state.kind == "B":
                return state
        return None

    # ------------------------------------------------------------------
    def _fill(self, state: _CoreState) -> None:
        if self._pending:
            request = self._pending.popleft()
            state.kind = "L"
            service_ns = self.begin_service(request, state.core.id)
            state.core.run(request.app.category, service_ns, self._done,
                           state, request)
            return
        if self.batch_apps:
            app = self.batch_apps[self._batch_rr % len(self.batch_apps)]
            self._batch_rr += 1
            state.kind = "B"
            state.batch_app = app
            state.batch_run = app.batch_work.start(
                state.core, self._batch_done, state)
            return
        state.kind = None
        state.core.set_idle()

    def _done(self, state: _CoreState, request: Request) -> None:
        request.app.complete(request, self.sim.now)
        if self.flight.enabled:
            self.flight.on_complete(request)
        state.kind = None
        self._fill(state)

    def _batch_done(self, state: _CoreState) -> None:
        state.batch_run = None
        state.batch_app = None
        if state.kind != "B":
            return
        state.kind = None
        self._fill(state)
