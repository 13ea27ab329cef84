"""Arachne: core-aware thread management (§6.1 comparator).

Arachne estimates each application's core requirement from load averaged
over a long window (tens of milliseconds) and acquires/releases cores
through the kernel (~29 µs per transition).  Two consequences the paper's
Figure 9 shows:

* the estimator lags µs-scale bursts, so queues build while the core
  count catches up (latency spikes past 10 ms under bursts);
* overall throughput declines sharply as load rises because grants are
  slow and per-request wakeups go through the kernel.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.hardware.machine import Core, Machine
from repro.sched import queues
from repro.sched.base import ColocationSystem
from repro.workloads.base import App, Request

#: Arachne targets ~80% utilization per granted core ("load factor")
TARGET_LOAD_FACTOR = 0.8


class _CoreState:
    __slots__ = ("core", "owner", "kind", "request", "batch_run")

    def __init__(self, core: Core) -> None:
        self.core = core
        self.owner: Optional[App] = None
        self.kind: Optional[str] = None  # None | "serve" | "idle-held" | "B"
        self.request: Optional[Request] = None
        self.batch_run = None


class ArachneSystem(ColocationSystem):
    """Arachne's core arbiter + per-app estimators."""

    name = "arachne"

    def __init__(self, sim: Simulator, machine: Machine, rngs: RngStreams,
                 worker_cores: Optional[List[Core]] = None) -> None:
        super().__init__(sim, machine, rngs, worker_cores)
        self.rng = rngs.stream("arachne")
        self._cores: Dict[int, _CoreState] = {
            core.id: _CoreState(core) for core in self.worker_cores
        }
        #: current core grant per L-app
        self._grants: Dict[str, int] = {}
        #: busy ns accumulated per L-app in the current estimator window
        self._window_busy: Dict[str, int] = {}
        self._window_start = 0
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError("system already started")
        self._started = True
        for app in self.latency_apps:
            self._grants[app.name] = 1
            self._window_busy[app.name] = 0
        self._window_start = self.sim.now
        self._apply_grants()
        self.sim.post(self.costs.arachne_estimator_interval_ns,
                      self._estimate)

    # ------------------------------------------------------------------
    # Estimator
    # ------------------------------------------------------------------
    def _estimate(self) -> None:
        window = self.sim.now - self._window_start
        for app in self.latency_apps:
            busy = self._window_busy.get(app.name, 0)
            self._window_busy[app.name] = 0
            utilization = busy / window if window > 0 else 0.0
            want = max(1, math.ceil(utilization / TARGET_LOAD_FACTOR))
            # Ramp one core at a time (Arachne's hysteresis).
            have = self._grants[app.name]
            if want > have:
                have += 1
            elif want < have:
                have -= 1
            self._grants[app.name] = min(have, len(self.worker_cores))
        self._window_start = self.sim.now
        self._apply_grants()
        self.sim.post(self.costs.arachne_estimator_interval_ns,
                      self._estimate)

    def _apply_grants(self) -> None:
        """Reshape core ownership to match the grants (kernel-mediated)."""
        for app in self.latency_apps:
            owned = [s for s in self._cores.values() if s.owner is app]
            target = self._grants[app.name]
            for state in owned[target:]:
                self._release(state)
            deficit = target - len(owned)
            while deficit > 0:
                state = queues.first_where(
                    self._cores.values(),
                    lambda s: s.owner is None or s.kind == "B")
                if state is None:
                    break
                self._acquire(state, app)
                deficit -= 1
        # Whatever is left goes to batch apps.
        for state in self._cores.values():
            if state.owner is None and not state.core.busy:
                self._grant_to_batch(state)

    def _acquire(self, state: _CoreState, app: App) -> None:
        if state.kind == "B" and state.batch_run is not None:
            state.batch_run.preempt()
            state.batch_run = None
        elif state.core.busy:
            state.core.preempt()
        state.owner = app
        state.kind = "transition"
        state.core.run("kernel", self.costs.arachne_core_grant_ns,
                       self._begin, state)

    def _release(self, state: _CoreState) -> None:
        if state.kind == "serve":
            return  # finish the current request first; reaped next window
        if state.core.busy:
            state.core.preempt()
        state.owner = None
        state.kind = None
        state.core.set_idle()

    def _grant_to_batch(self, state: _CoreState) -> None:
        for app in self.batch_apps:
            state.owner = app
            state.kind = "transition"
            state.core.run("kernel", self.costs.arachne_core_grant_ns,
                           self._begin, state)
            return
        state.core.set_idle()

    def _begin(self, state: _CoreState) -> None:
        app = state.owner
        if app is None:
            state.kind = None
            state.core.set_idle()
            return
        if app.is_latency:
            self._serve(state)
        else:
            state.kind = "B"
            self._run_batch_chunk(state)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def on_arrival(self, app: App, request: Request) -> None:
        # Wake an idle-held core of this app through the kernel.
        for state in self._cores.values():
            if state.owner is app and state.kind == "idle-held":
                state.kind = "transition"
                state.core.run("kernel", self.costs.arachne_wake_ns,
                               self._serve, state)
                return

    def _serve(self, state: _CoreState) -> None:
        app = state.owner
        request = app.pop_request()
        if request is None:
            # Arachne blocks the worker on a kernel futex; the core stays
            # granted to the app (idle from the machine's perspective).
            state.kind = "idle-held"
            state.core.set_idle()
            return
        state.kind = "serve"
        state.request = request
        service_ns = self.begin_service(request, state.core.id)
        self._window_busy[app.name] = (
            self._window_busy.get(app.name, 0) + request.service_ns
        )
        state.core.run(app.category, service_ns, self._request_done, state,
                       request)

    def _request_done(self, state: _CoreState, request: Request) -> None:
        request.app.complete(request, self.sim.now)
        if self.flight.enabled:
            self.flight.on_complete(request)
        state.request = None
        self._serve(state)

    # ------------------------------------------------------------------
    def _run_batch_chunk(self, state: _CoreState) -> None:
        app = state.owner
        state.batch_run = app.batch_work.start(
            state.core, self._batch_chunk_done, state)

    def _batch_chunk_done(self, state: _CoreState) -> None:
        state.batch_run = None
        if state.kind != "B":
            return
        self._run_batch_chunk(state)
