"""Memory-bandwidth regulation by core duty-cycling (Figure 13b).

VESSEL assigns an application a fine-grained CPU quota to regulate its
memory-bandwidth consumption: within each control window the scheduler
lets the app run until its byte budget for the window is spent, then
suspends its threads until the window ends.  Because suspending and
resuming cost ~0.16 µs, the window can be tens of microseconds and the
achieved bandwidth tracks the target closely — unlike Intel MBA's coarse
throttling levels or cgroup CPU quotas at CFS-period granularity.
"""

from __future__ import annotations

from repro.hardware.membus import MemoryBus
from repro.sim.engine import RunComponent, Simulator
from repro.vessel.scheduler import VesselSystem

DEFAULT_WINDOW_NS = 50_000
DEFAULT_CHECK_DIVISOR = 25


class VesselBandwidthRegulator(RunComponent):
    """Duty-cycles one B-app to hit a target bandwidth fraction."""

    def __init__(self, sim: Simulator, system: VesselSystem, bus: MemoryBus,
                 app_name: str, target_gbps: float,
                 window_ns: int = DEFAULT_WINDOW_NS) -> None:
        if target_gbps < 0:
            raise ValueError(f"negative target {target_gbps}")
        self.sim = sim
        self.system = system
        self.bus = bus
        self.app_name = app_name
        self.target_gbps = float(target_gbps)
        self.window_ns = window_ns
        self.check_ns = max(1, window_ns // DEFAULT_CHECK_DIVISOR)
        self._window_start = 0
        self._window_start_bytes = 0.0
        self._suspended = False
        self.windows = 0
        self.suspensions = 0

    def set_target(self, target_gbps: float) -> None:
        self.target_gbps = float(target_gbps)

    def start(self) -> None:
        self._begin_window()

    # ------------------------------------------------------------------
    def _begin_window(self) -> None:
        self.windows += 1
        self._window_start = self.sim.now
        self._window_start_bytes = self.bus.consumed_bytes(self.app_name)
        if self._suspended:
            self.system.resume_batch_app(self.app_name)
            self._suspended = False
        self.sim.post(self.check_ns, self._check)
        self.sim.post(self.window_ns, self._begin_window)

    def _check(self) -> None:
        if self._suspended:
            return  # nothing to do until the window rolls over
        elapsed = self.sim.now - self._window_start
        if elapsed >= self.window_ns:
            return
        budget = self.target_gbps * self.window_ns  # bytes per window
        consumed = (self.bus.consumed_bytes(self.app_name)
                    - self._window_start_bytes)
        if consumed >= budget:
            self.system.suspend_batch_app(self.app_name)
            self._suspended = True
            self.suspensions += 1
            return
        self.sim.post(self.check_ns, self._check)
