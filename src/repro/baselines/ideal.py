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
from repro.sched.base import ColocationSystem, CoreState
from repro.workloads.base import App, Request


class IdealSystem(ColocationSystem):
    """Instant, free core reallocation.

    A core's ``kind`` is None (idle), "L" or "B".
    """

    name = "ideal"

    def __init__(self, sim: Simulator, machine: Machine, rngs: RngStreams,
                 worker_cores: Optional[List[Core]] = None) -> None:
        if worker_cores is None:
            worker_cores = machine.cores  # no scheduler core needed
        super().__init__(sim, machine, rngs, worker_cores)
        self._cores: Dict[int, CoreState] = {
            core.id: CoreState(core) for core in self.worker_cores
        }
        #: pending requests across all L-apps, in arrival order
        self._pending: Deque[Request] = deque()
        self._batch_rr = 0

    def on_start(self) -> None:
        for state in self._cores.values():
            self._fill(state)

    # ------------------------------------------------------------------
    def on_arrival(self, app: App, request: Request) -> None:
        popped = app.queue.pop()  # submit() just appended this request
        assert popped is request
        self._pending.append(request)
        state = self._find_idle() or self._find_batch()
        if state is not None:
            if state.kind == "B":
                self.evict(state)  # free, instant
            state.kind = None
            self._fill(state)

    def _find_idle(self) -> Optional[CoreState]:
        for state in self._cores.values():
            if state.kind is None and not state.core.busy:
                return state
        return None

    def _find_batch(self) -> Optional[CoreState]:
        for state in self._cores.values():
            if state.kind == "B":
                return state
        return None

    # ------------------------------------------------------------------
    def _fill(self, state: CoreState) -> None:
        if self._pending:
            request = self._pending.popleft()
            state.kind = "L"
            state.request = request
            service_ns = self.begin_service(request, state.core.id)
            state.core.run(request.app.category, service_ns, self._done,
                           state, request)
            return
        batch_apps = self.batch_apps
        if batch_apps:
            app = batch_apps[self._batch_rr % len(batch_apps)]
            self._batch_rr += 1
            state.kind = "B"
            state.batch_run = app.batch_work.start(
                state.core, self._batch_done, state)
            return
        state.kind = None
        state.core.set_idle()

    def _done(self, state: CoreState, request: Request) -> None:
        state.request = None
        self.end_service(request)
        state.kind = None
        self._fill(state)

    def _batch_done(self, state: CoreState) -> None:
        state.batch_run = None
        if state.kind != "B":
            return
        state.kind = None
        self._fill(state)
