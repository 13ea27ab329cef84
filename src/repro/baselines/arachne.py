"""Arachne: core-aware thread management (§6.1 comparator).

Arachne estimates each application's core requirement from load averaged
over a long window (tens of milliseconds) and acquires/releases cores
through the kernel (~29 µs per transition).  Two consequences the paper's
Figure 9 shows:

* the estimator lags µs-scale bursts, so queues build while the core
  count catches up (latency spikes past 10 ms under bursts);
* overall throughput declines sharply as load rises because grants are
  slow and per-request wakeups go through the kernel.

The estimator first fires after ``arachne_estimator_interval_ns``
(50 ms).  At the default profile ``python -m repro fig09`` runs 30 ms,
so each L-app keeps its initial one-core grant for the whole run and
saturates at that core's capacity (1.03 Mops of memcached served at
1.2 Mops offered, seed 42).  At ``python -m repro --scale paper fig09``
(120 ms) it fires at 50 and 100 ms and grants memcached a second core
in the 1.2 Mops cell, which then serves 1.23 Mops.  The golden case
``arachne_estimator`` in ``tests/experiments/golden_run_colocation.json``
(60 ms) pins a run where it acts.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.hardware.machine import Core, Machine
from repro.sched import queues
from repro.baselines.owned import OwnedCoreState, OwnedCoreSystem
from repro.workloads.base import App, Request

#: Arachne targets ~80% utilization per granted core ("load factor")
TARGET_LOAD_FACTOR = 0.8


class ArachneSystem(OwnedCoreSystem):
    """Arachne's core arbiter + per-app estimators.

    A core's ``kind`` is None (unowned), "serve", "idle-held", "B" or
    "transition".
    """

    name = "arachne"

    def __init__(self, sim: Simulator, machine: Machine, rngs: RngStreams,
                 worker_cores: Optional[List[Core]] = None) -> None:
        super().__init__(sim, machine, rngs, worker_cores)
        self.rng = rngs.stream("arachne")
        #: current core grant per L-app
        self._grants: Dict[str, int] = {}
        #: busy ns accumulated per L-app in the current estimator window
        self._window_busy: Dict[str, int] = {}
        self._window_start = 0

    # ------------------------------------------------------------------
    def on_start(self) -> None:
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

    def _acquire(self, state: OwnedCoreState, app: App) -> None:
        self.evict(state)
        state.owner = app
        state.kind = "transition"
        state.core.run("kernel", self.costs.arachne_core_grant_ns,
                       self._begin, state)

    def _release(self, state: OwnedCoreState) -> None:
        if state.kind == "serve":
            return  # finish the current request first; reaped next window
        self.evict(state)
        state.owner = None
        state.kind = None
        state.core.set_idle()

    def _grant_to_batch(self, state: OwnedCoreState) -> None:
        for app in self.batch_apps:
            state.owner = app
            state.kind = "transition"
            state.core.run("kernel", self.costs.arachne_core_grant_ns,
                           self._begin, state)
            return
        state.core.set_idle()

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

    def _serve(self, state: OwnedCoreState) -> None:
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
