"""Executes a :class:`FaultPlan` against a running system.

The injector owns its own deterministic RNG (derived from the plan
seed), so injection decisions never perturb the workload's random
streams — a faulted run and a fault-free run see identical arrivals and
service times, which is what makes before/after latency comparisons
meaningful.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.hardware.uintr import UINTR_DROP
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.net.link import LINK_DROP
from repro.sim.engine import RunComponent

#: how long a crash/rogue spec waits before re-probing when its victim
#: app is momentarily off-core
_REARM_NS = 5_000


class FaultInjector(RunComponent):
    """Attaches a plan to a system and reports its containment audit.

    Uintr and packet faults apply to any system; crash, rogue-thread and
    scheduler-stall faults need VESSEL's containment interface.

    :meth:`start` wires the plan in (call it after ``system.start()``).
    """

    def __init__(self, plan: FaultPlan, system) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.injected: Dict[FaultKind, int] = {k: 0 for k in FaultKind}
        self.system = system
        self._attached = False
        self._drop_specs: List[FaultSpec] = []
        self._delay_specs: List[FaultSpec] = []
        self._pkt_drop_specs: List[FaultSpec] = []
        self._pkt_delay_specs: List[FaultSpec] = []

    # -------------------------------------------------------------------
    def start(self) -> None:
        """Wire the plan into the system given at construction."""
        if self._attached:
            raise RuntimeError("injector already attached")
        self._attached = True
        system = self.system
        self._drop_specs = [s for s in self.plan.specs
                            if s.kind is FaultKind.DROP_UINTR]
        self._delay_specs = [s for s in self.plan.specs
                             if s.kind is FaultKind.DELAY_UINTR]
        if self._drop_specs or self._delay_specs:
            system.machine.uintr.inject = self._uintr_disposition
        self._pkt_drop_specs = [s for s in self.plan.specs
                                if s.kind is FaultKind.DROP_PACKET]
        self._pkt_delay_specs = [s for s in self.plan.specs
                                 if s.kind is FaultKind.DELAY_PACKET]
        if self._pkt_drop_specs or self._pkt_delay_specs:
            fabric = system.net_fabric
            if fabric is None:
                raise RuntimeError(
                    "packet fault specs need a network fabric "
                    "(run with a NetConfig / --net)")
            for link in fabric.links:
                link.inject = self._link_disposition
        for spec in self.plan.specs:
            if spec.kind in (FaultKind.CRASH_UTHREAD,
                             FaultKind.ROGUE_THREAD):
                system.sim.at(spec.at_ns, self._hit_app, spec)
            elif spec.kind is FaultKind.STALL_SCHEDULER:
                system.sim.at(spec.at_ns, self._stall)

    # -------------------------------------------------------------------
    # Uintr dispositions (fault classes "a": dropped / delayed delivery)
    # -------------------------------------------------------------------
    def _uintr_disposition(self, sender_id: int, receiver_id: int,
                           vector: int) -> Optional[int]:
        now = self.system.sim.now
        for spec in self._drop_specs:
            if now >= spec.at_ns and self.rng.random() < spec.probability:
                self.injected[FaultKind.DROP_UINTR] += 1
                return UINTR_DROP
        for spec in self._delay_specs:
            if now >= spec.at_ns and self.rng.random() < spec.probability:
                self.injected[FaultKind.DELAY_UINTR] += 1
                return spec.delay_ns
        return None

    # -------------------------------------------------------------------
    # Link dispositions (packet loss / delay on the simulated wire)
    # -------------------------------------------------------------------
    def _link_disposition(self, request, nbytes: int) -> Optional[int]:
        # Called per packet: one clock read and one bound draw method.
        now = self.system.sim.now
        random = self.rng.random
        for spec in self._pkt_drop_specs:
            if now >= spec.at_ns and random() < spec.probability:
                self.injected[FaultKind.DROP_PACKET] += 1
                if self.system.ledger.enabled:
                    self.system.ledger.count_op("fault:packet_drop",
                                                domain="fault")
                return LINK_DROP
        for spec in self._pkt_delay_specs:
            if now >= spec.at_ns and random() < spec.probability:
                self.injected[FaultKind.DELAY_PACKET] += 1
                if self.system.ledger.enabled:
                    self.system.ledger.count_op("fault:packet_delay",
                                                domain="fault")
                return spec.delay_ns
        return None

    # -------------------------------------------------------------------
    # Point faults
    # -------------------------------------------------------------------
    def _hit_app(self, spec: FaultSpec) -> None:
        """Crash the victim app's running thread or make it rogue."""
        system = self.system
        if not system.has_app(spec.app):
            return  # the victim is already gone
        if spec.kind is FaultKind.CRASH_UTHREAD:
            hit = system.containment.crash_uproc(spec.app)
        else:
            hit = system.containment.make_rogue(spec.app)
        if hit:
            self.injected[spec.kind] += 1
        else:
            # Victim not on a core right now; re-arm.
            system.sim.after(_REARM_NS, self._hit_app, spec)

    def _stall(self) -> None:
        self.system.containment.stall_scheduler()
        self.injected[FaultKind.STALL_SCHEDULER] += 1

    # -------------------------------------------------------------------
    # Report
    # -------------------------------------------------------------------
    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def contribute(self, report) -> None:
        report.uncontained = self.system.uncontained()
        report.fault_injected = {kind.value: count for kind, count
                                 in self.injected.items() if count}
