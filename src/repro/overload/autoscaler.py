"""SLO-driven core autoscaling as a scheduling policy.

Caladan's core allocator re-evaluates per-application core grants every
5 us from queueing-delay signals; this policy transplants the idea onto
the VESSEL mechanism as a :class:`SchedPolicy` subclass — it composes
with the zoo, costs nothing it doesn't use, and every harvest/return is
an ordinary policy decision executed (and validated) by the mechanism.

Control law, evaluated once per ``control_period_ns``:

* each latency app keeps a sliding window of completed-request
  latencies (fed by ``on_request_done``);
* when the *worst* per-app p99 exceeds ``slo_p99_ns``, one best-effort
  core is **harvested**: the BE cap drops by one and, if a BE thread is
  running above the cap, it is preempted in favour of a parked server
  thread of the most backlogged latency app (or force-idled when none
  is parked, leaving the core hot for the next arrival burst);
* when the worst p99 has stayed below ``low_watermark * slo_p99_ns``
  for ``hysteresis_periods`` consecutive periods, one core is
  **returned** to the best-effort pool.

The asymmetry (harvest instantly, return reluctantly) is the standard
control-theory guard against oscillation when load sits near a
threshold.  All state is deterministic: windows are bounded deques,
ties break in core/app iteration order, and no randomness is used.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, Optional

from repro.sched.policy import (
    Decision, Idle, Preempt, Run, SchedPolicy, register_policy)

#: default SLO budget on per-app p99 latency
DEFAULT_SLO_P99_US = 200.0
#: how often the control law runs (piggybacked on the scheduler tick)
DEFAULT_CONTROL_PERIOD_NS = 100_000


@register_policy
class SloAutoscalePolicy(SchedPolicy):
    """Harvest/return best-effort cores to keep latency p99 in budget."""

    name = "autoscale"

    def __init__(self,
                 slo_p99_us: float = DEFAULT_SLO_P99_US,
                 control_period_ns: int = DEFAULT_CONTROL_PERIOD_NS,
                 window: int = 512,
                 min_samples: int = 32,
                 low_watermark: float = 0.5,
                 hysteresis_periods: int = 3,
                 min_be_cores: int = 0,
                 **kwargs) -> None:
        super().__init__(**kwargs)
        self.slo_p99_ns = int(slo_p99_us * 1_000)
        self.control_period_ns = control_period_ns
        self.window = window
        self.min_samples = min_samples
        self.low_watermark = low_watermark
        self.hysteresis_periods = hysteresis_periods
        self.min_be_cores = min_be_cores
        #: BE-core cap; None until the first tick (bind() runs before
        #: the mechanism builds its core table, so the total core count
        #: is not knowable yet)
        self.be_allowed: Optional[int] = None
        self._total_cores = 0
        self._windows: Dict[str, Deque[int]] = {}
        self._last_control_ns = 0
        self._calm_streak = 0
        self.harvests = 0
        self.returns = 0

    # -- bookkeeping ----------------------------------------------------
    def on_app_added(self, app_state) -> None:
        if app_state.app.is_latency:
            self._windows[app_state.app.name] = deque(maxlen=self.window)

    def on_app_removed(self, app_state) -> None:
        self._windows.pop(app_state.app.name, None)

    def on_request_done(self, core_state, request) -> None:
        window = self._windows.get(request.app.name)
        if window is not None:
            window.append(request.latency_ns(self.ctx.now))

    def worst_p99_ns(self) -> Optional[int]:
        """Largest per-app p99 across apps with enough samples."""
        worst = None
        for window in self._windows.values():
            if len(window) < self.min_samples:
                continue
            ordered = sorted(window)
            p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
            if worst is None or p99 > worst:
                worst = p99
        return worst

    def _be_running(self) -> int:
        return sum(1 for cs in self.ctx.core_states() if cs.kind == "B")

    # -- capped best-effort admission -----------------------------------
    def on_core_idle(self, core_state) -> Decision:
        head = core_state.fifo.peek()
        if head is not None:
            return Run(head, core_state.core.id)
        if self.be_allowed is not None \
                and self._be_running() >= self.be_allowed:
            # Harvested core: hold it in UMWAIT for latency work even
            # though best-effort threads are runnable.
            return Idle(core_state.core.id)
        be_thread = self.ctx.next_be_thread()
        if be_thread is not None:
            return Run(be_thread, core_state.core.id)
        return Idle(core_state.core.id)

    # -- control law ----------------------------------------------------
    def on_tick(self) -> Iterator[Decision]:
        if self.be_allowed is None:
            self._total_cores = sum(1 for _ in self.ctx.core_states())
            self.be_allowed = self._total_cores
        now = self.ctx.now
        if now - self._last_control_ns >= self.control_period_ns:
            self._last_control_ns = now
            yield from self._control()
        yield from super().on_tick()

    def _control(self) -> Iterator[Decision]:
        worst = self.worst_p99_ns()
        if worst is None:
            return
        ledger = getattr(self.ctx, "ledger", None)
        if worst > self.slo_p99_ns:
            self._calm_streak = 0
            if self.be_allowed > self.min_be_cores:
                self.be_allowed -= 1
                self.harvests += 1
                if ledger is not None and ledger.enabled:
                    ledger.count_op("autoscale:harvest", domain="policy")
                yield from self._evict_excess_be()
        elif worst < self.low_watermark * self.slo_p99_ns:
            self._calm_streak += 1
            if self._calm_streak >= self.hysteresis_periods \
                    and self.be_allowed < self._total_cores:
                self.be_allowed += 1
                self.returns += 1
                if ledger is not None and ledger.enabled:
                    ledger.count_op("autoscale:return", domain="policy")
                self._calm_streak = 0
        else:
            self._calm_streak = 0

    def _evict_excess_be(self) -> Iterator[Decision]:
        """Preempt BE cores above the cap, handing each to the most
        backlogged latency app (forced idle when none has a parked
        server — the core stays hot for the next placement round)."""
        excess = self._be_running() - self.be_allowed
        if excess <= 0:
            return
        for core_state in self.ctx.core_states():
            if excess <= 0:
                break
            if core_state.kind != "B":
                continue
            incoming = None
            backlog = 0
            for app_state in self.ctx.app_states():
                if not app_state.app.is_latency or not app_state.parked:
                    continue
                if len(app_state.app.queue) >= backlog:
                    incoming = app_state.parked[0]
                    backlog = len(app_state.app.queue)
            ledger = getattr(self.ctx, "ledger", None)
            if ledger is not None and ledger.enabled:
                ledger.count_op("autoscale:cap_preempt",
                                core=core_state.core.id, domain="policy")
            yield Preempt(core_state.core.id, core_state.thread, incoming)
            excess -= 1

    # -- reporting ------------------------------------------------------
    def scaling_snapshot(self) -> Dict:
        """JSON-friendly controller state for the run report."""
        return {
            "be_allowed": self.be_allowed,
            "total_cores": self._total_cores,
            "harvests": self.harvests,
            "returns": self.returns,
            "worst_p99_ns": self.worst_p99_ns(),
        }

    def contribute(self, report) -> None:
        report.autoscale = self.scaling_snapshot()

    def add_probes(self, gauges) -> None:
        gauges.add_probe(
            "be_core_cap",
            lambda: -1 if self.be_allowed is None else self.be_allowed)
