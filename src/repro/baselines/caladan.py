"""Caladan: the two-level comparator (§2.1, Figure 7a).

Policy structure (deliberately conservative, because core reallocation is
expensive for it):

* cores are *owned* by one application at a time; an idle core spins and
  steals inside its own application for ``caladan_steal_before_park_ns``
  (2 µs) before parking back to the IOKernel;
* a parked core is rebound cooperatively (yield + rebind ≈ 2.1 µs,
  Table 1) to the most congested application, else to the B-app;
* when a congested application finds no idle core, it must *preempt* one
  — and that runs the Figure 3 kernel pipeline (ioctl → IPI → trap →
  SIGUSR save → kernel switch → restore, 5.3 µs) and only happens on the
  IOKernel's 10 µs core-allocation tick;
* the Delay Range policy gates grants on queueing delay: cores are added
  only once the app's oldest pending request has waited more than
  ``delay_hi_ns`` (DR-L: 1 µs, DR-H: 4 µs; plain Caladan: > 0).

Construct variants with :func:`caladan_dr_l` / :func:`caladan_dr_h`.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.hardware.machine import Core, Machine
from repro.kernel.kschedule import KernelReallocPipeline
from repro.sched import queues
from repro.baselines.owned import OwnedCoreState, OwnedCoreSystem
from repro.workloads.base import App, Request


class CaladanSystem(OwnedCoreSystem):
    """Caladan with configurable Delay Range.

    A core's ``kind`` is None (unowned), "serve", "spin", "B" or
    "transition".
    """

    name = "caladan"

    def __init__(self, sim: Simulator, machine: Machine, rngs: RngStreams,
                 worker_cores: Optional[List[Core]] = None,
                 delay_lo_ns: int = 0, delay_hi_ns: int = 0,
                 fast_react: bool = False,
                 bw_cap_app: Optional[str] = None,
                 bw_cap_gbps: Optional[float] = None) -> None:
        super().__init__(sim, machine, rngs, worker_cores)
        #: optional memory-bandwidth cap on one B-app, enforced at the
        #: 10 us allocation-tick granularity by revoking/regranting whole
        #: cores - Caladan's coarse version of Figure 13's regulation
        self.bw_cap_app = bw_cap_app
        self.bw_cap_gbps = bw_cap_gbps
        self._capped = bw_cap_app is not None and bw_cap_gbps is not None
        self._bw_meter = None
        #: EWMA of the capped app's per-core bandwidth (GB/s); None
        #: until the first sample with the app running
        self._bw_per_core: Optional[float] = None
        self._bw_throttled = False
        self.delay_lo_ns = delay_lo_ns
        self.delay_hi_ns = delay_hi_ns
        #: the Delay-Range rework also made the IOKernel react to
        #: congestion between allocation ticks; plain Caladan only grants
        #: on the tick itself
        self.fast_react = fast_react
        self.rng = rngs.stream("caladan")
        self.pipeline = KernelReallocPipeline(self.costs,
                                              ledger=self.ledger)
        self._react_pending: Set[str] = set()
        self.reallocations = 0
        self.rebinds = 0
        self.parks = 0
        # Worker count and cost model are fixed for the system's life,
        # so the IOKernel constants are derived once, not per tick,
        # park or arrival.
        costs = self.costs
        workers = len(self.worker_cores)
        #: IOKernel tick, stretched by its per-core control-plane cost
        self.alloc_interval_ns: int = max(
            costs.caladan_core_alloc_interval_ns,
            workers * costs.caladan_iokernel_per_core_ns)
        # IOKernel congestion multiplier (1/(1-rho)).  The IOKernel polls
        # queues AND forwards packets for every managed core, costing
        # ~295 ns per core per 10 us tick, so it saturates around 34
        # cores — the Figure 12 knee the paper measures.
        rho = (workers * costs.caladan_iokernel_per_core_ns
               / costs.caladan_core_alloc_interval_ns)
        self.control_plane_factor: float = 1.0 / (1.0 - min(rho, 0.97))

    def on_start(self) -> None:
        for state in self._cores.values():
            self._grant_idle_core(state, include_batch=True)
        self.sim.post(self.alloc_interval_ns, self._alloc_tick)

    # ------------------------------------------------------------------
    # Arrival path
    # ------------------------------------------------------------------
    def on_arrival(self, app: App, request: Request) -> None:
        # A core spinning inside this app picks the request up directly
        # (the first one in worker-core order).
        for state in self._cores.values():
            if state.owner is app and state.kind == "spin":
                state.core.preempt()  # end the spin early
                self._serve(state)
                return
        if self.fast_react and app.name not in self._react_pending:
            # Check once the queueing delay can have crossed the range's
            # upper bound (the Delay Range trigger condition).
            self._react_pending.add(app.name)
            react = int(self.costs.caladan_iokernel_react_ns
                        * self.control_plane_factor)
            self.sim.post(react + self.delay_hi_ns,
                          self._grant_check, app)

    def _grant_check(self, app: App) -> None:
        self._react_pending.discard(app.name)
        if not self._congested(app):
            return
        # Grants from the idle pool happen as soon as the IOKernel
        # notices; preemptions wait for the allocation tick.  Like
        # Shenango/Caladan, at most ONE core is added per congestion
        # detection - ramping is gradual by design.
        if self._congested_wants_more(app):
            idle = self._find_idle_core()
            if idle is not None:
                self._rebind(idle, app)

    # ------------------------------------------------------------------
    # IOKernel core-allocation tick
    # ------------------------------------------------------------------
    def _alloc_tick(self) -> None:
        if self._capped:
            self._enforce_bw_cap()
        for app in self.latency_apps:
            # One additional core per app per tick (gradual ramping).
            if self._congested_wants_more(app):
                idle = self._find_idle_core()
                if idle is not None:
                    self._rebind(idle, app)
                else:
                    victim = self._find_preemption_victim(app)
                    if victim is not None:
                        self._preempt(victim, app)
        for state in self._cores.values():
            if state.kind is None and not state.core.busy:
                self._grant_idle_core(state, include_batch=True)
        self.sim.post(self.alloc_interval_ns, self._alloc_tick)

    def _enforce_bw_cap(self) -> None:
        """Core-granular bandwidth throttling of the capped B-app.

        Caladan can only regulate bandwidth by adding/removing whole
        cores every allocation tick, and a reallocation costs 5.3 us, so
        rapid duty-cycling is off the table: the practical policy is to
        cap the app at floor(budget / per-core-rate) cores.  The
        quantization (a core is ~12 GB/s) is exactly why its regulation
        is coarse compared to VESSEL's (Figure 13).
        """
        if self._bw_meter is None:
            from repro.hardware.membus import BandwidthMeter
            self._bw_meter = BandwidthMeter(self.machine.membus,
                                            self.bw_cap_app)
            return
        running = [s for s in self._cores.values()
                   if s.kind == "B" and s.owner is not None
                   and s.owner.name == self.bw_cap_app]
        consumed = self._bw_meter.sample_gbps()
        if running and consumed > 0:
            per_core = consumed / len(running)
            previous = self._bw_per_core
            self._bw_per_core = (0.7 * (per_core if previous is None
                                        else previous)
                                 + 0.3 * per_core)
        per_core = self._bw_per_core
        if per_core is None or per_core <= 0:
            return
        allowed = int(self.bw_cap_gbps / per_core)
        self._bw_throttled = len(running) >= allowed
        while len(running) > allowed:
            state = running.pop()
            self.evict(state)
            state.owner = None
            state.kind = None
            state.core.set_idle()

    def _congested(self, app: App) -> bool:
        return bool(app.queue) and \
            app.oldest_wait_ns(self.sim.now) > self.delay_hi_ns

    def _congested_wants_more(self, app: App) -> bool:
        if not self._congested(app):
            return False
        active = sum(1 for s in self._cores.values() if s.owner is app)
        return active < min(len(app.queue), len(self.worker_cores))

    def _find_idle_core(self) -> Optional[OwnedCoreState]:
        return queues.first_idle(self._cores.values())

    def _find_preemption_victim(self, requester: App) -> Optional[OwnedCoreState]:
        # Best-effort cores first.
        victim = queues.first_of_kind(self._cores.values(), "B")
        if victim is not None:
            return victim
        # Then a latency core whose app is clearly less congested.
        req_delay = requester.oldest_wait_ns(self.sim.now)
        best = None
        best_delay = None
        for state in self._cores.values():
            if state.kind != "serve" or state.owner is requester:
                continue
            delay = state.owner.oldest_wait_ns(self.sim.now)
            if delay + self.delay_hi_ns < req_delay:
                if best_delay is None or delay < best_delay:
                    best, best_delay = state, delay
        return best

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _grant_idle_core(self, state: OwnedCoreState,
                         include_batch: bool = False) -> None:
        """Rebind an idle core to the most congested L-app.

        B-apps only receive idle cores when ``include_batch`` is set —
        i.e. on the 10 µs allocation tick, not the instant a core parks.
        This is Caladan's actual behaviour and the reason short idle
        windows exist that a returning L-app can reclaim with the cheap
        cooperative rebind instead of the 5.3 µs preemption pipeline.
        """
        congested = [app for app in self.latency_apps
                     if self._congested_wants_more(app)]
        if congested:
            target = max(congested,
                         key=lambda app: app.oldest_wait_ns(self.sim.now))
            self._rebind(state, target)
            return
        if include_batch:
            for app in self.batch_apps:
                if self._bw_throttled and app.name == self.bw_cap_app:
                    continue
                self._rebind(state, app)
                return
        state.owner = None
        state.kind = None
        state.core.set_idle()

    def _rebind(self, state: OwnedCoreState, app: App) -> None:
        """Cooperative rebind of a parked/idle core (Table 1 path)."""
        self.rebinds += 1
        state.owner = app
        state.kind = "transition"
        state.core.run("kernel", self.costs.caladan_park_switch_ns
                       + self.costs.kernel_jitter_ns(self.rng),
                       self._begin, state)

    def _preempt(self, state: OwnedCoreState, app: App) -> None:
        """Preemptive reallocation: the Figure 3 kernel pipeline.  The
        victim's in-flight request is suspended; its remaining service
        time returns to the front of its app's queue."""
        self.reallocations += 1
        self.evict(state, requeue=True)
        state.owner = app
        state.kind = "transition"
        self.pipeline.run(state.core, self._begin, state, rng=self.rng)

    # ------------------------------------------------------------------
    # Latency serving (run-to-completion + steal-spin + park)
    # ------------------------------------------------------------------
    def _serve(self, state: OwnedCoreState) -> None:
        app = state.owner
        if not app.queue:
            # Steal inside the app for 2 µs before parking (Figure 7a).
            state.kind = "spin"
            state.core.run("runtime", self.costs.caladan_steal_before_park_ns,
                           self._spin_done, state)
            return
        request = app.queue.popleft()
        state.kind = "serve"
        state.request = request
        service_ns = self.begin_service(request, state.core.id)
        state.core.run(app.category, service_ns, self._request_done, state,
                       request)

    def _spin_done(self, state: OwnedCoreState) -> None:
        app = state.owner
        if app.queue:
            self._serve(state)
            return
        # Park: yield the core back to the IOKernel.
        self.parks += 1
        state.kind = "transition"
        state.core.run("kernel", self.costs.caladan_park_yield_ns,
                       self._parked, state)

    def _parked(self, state: OwnedCoreState) -> None:
        state.owner = None
        state.kind = None
        # The IOKernel notices the park on its next poll pass; under
        # control-plane congestion that takes correspondingly longer.
        delay = int(self.costs.caladan_iokernel_react_ns
                    * (self.control_plane_factor - 1.0))
        if delay <= 0:
            self._grant_idle_core(state, include_batch=False)
        else:
            self.sim.post(delay, self._handoff_parked, state)

    def _handoff_parked(self, state: OwnedCoreState) -> None:
        if state.kind is None and not state.core.busy and state.owner is None:
            self._grant_idle_core(state, include_batch=False)


def caladan_dr_l(sim: Simulator, machine: Machine, rngs: RngStreams,
                 worker_cores: Optional[List[Core]] = None) -> CaladanSystem:
    """Caladan with Delay Range 0.5-1 µs (good tails, more switching)."""
    system = CaladanSystem(sim, machine, rngs, worker_cores,
                           delay_lo_ns=500, delay_hi_ns=1000,
                           fast_react=True)
    system.name = "caladan-dr-l"
    return system


def caladan_dr_h(sim: Simulator, machine: Machine, rngs: RngStreams,
                 worker_cores: Optional[List[Core]] = None) -> CaladanSystem:
    """Caladan with Delay Range 1-4 µs (fewer grants, higher tails)."""
    system = CaladanSystem(sim, machine, rngs, worker_cores,
                           delay_lo_ns=1000, delay_hi_ns=4000,
                           fast_react=True)
    system.name = "caladan-dr-h"
    return system
