"""Per-app admission control / load shedding.

When offered load exceeds capacity, an unprotected FIFO system queues
without bound: latency grows linearly with the backlog and every client
retry adds to it (the classic retry-storm collapse).  Admission control
converts that unbounded queueing into bounded queueing plus explicit
rejections, which clients can back off from.

Two watermarks, checked per latency app:

* **queue depth** — pending requests already exceed what the app's
  servers can drain within its latency budget;
* **oldest arrival** — the head-of-line request has waited longer than
  ``max_oldest_wait_ns``, so anything admitted behind it is already
  doomed to miss its deadline (admitting it only wastes service time).

Sheds happen at two stages.  The *NIC-ingress* check (wired through
:class:`~repro.net.fabric.NetFabric`) rejects before the packet occupies
an RX-ring slot; the *submit-boundary* check catches direct-submit runs
and whatever slipped through the ring while state changed.  Both count
deterministic ``shed:queue_depth`` / ``shed:oldest_wait`` ledger ops and
per-app counters, and — when the request came over the fabric — send a
rejection response back so the client observes the shed and applies its
(seeded, exponential) backoff instead of timing out blind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs.flight import NULL_FLIGHT
from repro.obs.ledger import NULL_LEDGER, OpLedger
from repro.sim.engine import RunComponent, Simulator
from repro.sim.units import US
from repro.workloads.base import App, Request

#: stage labels for the shed accounting
STAGES = ("ingress", "submit")
#: watermark labels (ledger ops are ``shed:<reason>``)
REASONS = ("queue_depth", "oldest_wait")


@dataclass(frozen=True)
class AdmissionConfig:
    """Watermarks for per-app load shedding (0 disables a check).

    Picklable so batch sweeps can fan admission-controlled runs out
    over worker processes.
    """

    #: shed when an app's pending queue reaches this depth
    max_queue_depth: int = 192
    #: shed when the head-of-line request has waited this long
    max_oldest_wait_ns: int = 400 * US


class AdmissionControl(RunComponent):
    """Wraps a system's ``submit`` and sheds above the watermarks."""

    def __init__(self, sim: Simulator, cfg: AdmissionConfig,
                 ledger: Optional[OpLedger] = None) -> None:
        self.sim = sim
        self.cfg = cfg
        self.ledger = ledger or NULL_LEDGER
        self.system = None
        self._inner_submit = None
        self.flight = NULL_FLIGHT
        #: per-app admitted-request count (submit boundary)
        self.admitted: Dict[str, int] = {}
        #: per-app shed counts keyed by watermark reason
        self.shed: Dict[str, Dict[str, int]] = {}
        #: shed counts keyed by stage (ingress vs submit)
        self.shed_by_stage: Dict[str, int] = {s: 0 for s in STAGES}

    # ------------------------------------------------------------------
    def attach(self, system) -> None:
        """Interpose on ``system.submit``.

        Must run before anything captures a reference to the original
        bound method (sources and the net fabric both do), so call it
        immediately after the system is constructed.
        """
        if self._inner_submit is not None:
            raise RuntimeError("admission control already attached")
        self.system = system
        self._inner_submit = system.submit
        system.submit = self.submit
        system.admission = self
        self.flight = system.flight

    # ------------------------------------------------------------------
    def reason_to_shed(self, app: App, now: int) -> Optional[str]:
        """The watermark ``app`` currently violates, or None to admit."""
        if not app.is_latency:
            return None
        cfg = self.cfg
        if cfg.max_queue_depth > 0 \
                and len(app.queue) >= cfg.max_queue_depth:
            return "queue_depth"
        if cfg.max_oldest_wait_ns > 0 and app.queue \
                and now - app.queue[0].arrival_ns >= cfg.max_oldest_wait_ns:
            return "oldest_wait"
        return None

    def submit(self, request: Request) -> None:
        """The guarded intake installed over ``system.submit``."""
        app = request.app
        reason = self.reason_to_shed(app, self.sim.now)
        if reason is not None:
            self.count_shed(app.name, reason, stage="submit")
            self._reject(request)
            return
        if app.is_latency:
            self.admitted[app.name] = self.admitted.get(app.name, 0) + 1
            if self.flight.enabled:
                self.flight.mark(request, "admit")
        self._inner_submit(request)

    def count_shed(self, app_name: str, reason: str, stage: str) -> None:
        per_app = self.shed.setdefault(
            app_name, {r: 0 for r in REASONS})
        per_app[reason] += 1
        self.shed_by_stage[stage] += 1
        if self.ledger.enabled:
            self.ledger.count_op(f"shed:{reason}", domain="net")

    def _reject(self, request: Request) -> None:
        # Over the fabric the rejection travels back as a tiny response;
        # a direct-submit request simply never enters the system (the
        # open-loop source does not react either way).
        if request.net_token is not None:
            fabric = self.system.net_fabric
            if fabric is not None:
                fabric.shed_response(request)
        elif self.flight.enabled:
            # Direct-submit rejections have no response leg to ride: the
            # flight terminates at the shed decision itself.
            self.flight.mark(request, "shed")
            self.flight.finalize(request, "shed")

    # ------------------------------------------------------------------
    def begin_measurement(self) -> None:
        """Drop warmup-phase shed/admit statistics."""
        self.admitted.clear()
        for per_app in self.shed.values():
            for reason in per_app:
                per_app[reason] = 0
        for stage in self.shed_by_stage:
            self.shed_by_stage[stage] = 0

    def total_shed(self, app_name: Optional[str] = None) -> int:
        if app_name is not None:
            return sum(self.shed.get(app_name, {}).values())
        return sum(sum(per.values()) for per in self.shed.values())

    def snapshot(self) -> Dict:
        """Deterministic, JSON-friendly accounting for the report."""
        return {
            "admitted": dict(sorted(self.admitted.items())),
            "shed": {name: dict(per)
                     for name, per in sorted(self.shed.items())},
            "by_stage": dict(self.shed_by_stage),
        }

    def contribute(self, report) -> None:
        report.admission = self.snapshot()
