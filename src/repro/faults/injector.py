"""Executes a :class:`FaultPlan` against a running VESSEL system.

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
from repro.sim.engine import RunComponent

#: how long a crash/rogue spec waits before re-probing when its victim
#: app is momentarily off-core
_REARM_NS = 5_000


class FaultInjector(RunComponent):
    """Attaches a plan to a VesselSystem and tracks containment.

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
            fabric = getattr(system, "net_fabric", None)
            if fabric is None:
                raise RuntimeError(
                    "packet fault specs need a network fabric "
                    "(run with a NetConfig / --net)")
            for link in fabric.links:
                link.inject = self._link_disposition
        for spec in self.plan.specs:
            if spec.kind is FaultKind.CRASH_UTHREAD:
                system.sim.at(spec.at_ns, self._crash, spec)
            elif spec.kind is FaultKind.ROGUE_THREAD:
                system.sim.at(spec.at_ns, self._rogue, spec)
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
        from repro.net.link import LINK_DROP
        now = self.system.sim.now
        for spec in self._pkt_drop_specs:
            if now >= spec.at_ns and self.rng.random() < spec.probability:
                self.injected[FaultKind.DROP_PACKET] += 1
                if self.system.ledger.enabled:
                    self.system.ledger.count_op("fault:packet_drop",
                                                domain="fault")
                return LINK_DROP
        for spec in self._pkt_delay_specs:
            if now >= spec.at_ns and self.rng.random() < spec.probability:
                self.injected[FaultKind.DELAY_PACKET] += 1
                if self.system.ledger.enabled:
                    self.system.ledger.count_op("fault:packet_delay",
                                                domain="fault")
                return spec.delay_ns
        return None

    # -------------------------------------------------------------------
    # Point faults
    # -------------------------------------------------------------------
    def _crash(self, spec: FaultSpec) -> None:
        system = self.system
        if spec.app not in system._apps:
            return  # the victim is already gone
        if system.crash_uproc(spec.app):
            self.injected[FaultKind.CRASH_UTHREAD] += 1
        else:
            # Victim not on a core right now; re-arm.
            system.sim.after(_REARM_NS, self._crash, spec)

    def _rogue(self, spec: FaultSpec) -> None:
        system = self.system
        if spec.app not in system._apps:
            return
        if system.make_rogue(spec.app):
            self.injected[FaultKind.ROGUE_THREAD] += 1
        else:
            system.sim.after(_REARM_NS, self._rogue, spec)

    def _stall(self) -> None:
        self.system.stall_scheduler()
        self.injected[FaultKind.STALL_SCHEDULER] += 1

    # -------------------------------------------------------------------
    # Containment audit
    # -------------------------------------------------------------------
    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def contribute(self, report) -> None:
        report.uncontained = self.uncontained()
        report.fault_injected = {kind.value: count for kind, count
                                 in self.injected.items() if count}

    def uncontained(self) -> List[str]:
        """Post-run audit: every way a fault can have escaped containment.

        Empty list == every injected fault was absorbed.  Run this after
        the simulation has drained (or at its horizon).
        """
        system = self.system
        issues: List[str] = []
        if system is None:
            return issues
        for cs in system._cores.values():
            if cs.core.wedged:
                issues.append(f"core {cs.core.id} wedged")
        if system._sched_stalled:
            issues.append("scheduler core still stalled")
        grace = (2 * system.preempt_ack_ns
                 + system.costs.ipi_deliver_ns
                 + system.costs.kernel_ctx_switch_ns + 1_000)
        for core_id, pending in system._pending_preempts.items():
            if system.sim.now - pending.sent_at > grace:
                issues.append(
                    f"preemption of core {core_id} unacknowledged for "
                    f"{system.sim.now - pending.sent_at} ns")
        for uproc in system.domain.uprocs:
            if uproc.alive or not uproc.slot.in_use:
                continue
            if any(u.alive and u.slot is uproc.slot
                   for u in system.domain.uprocs):
                continue  # the slot was legitimately reallocated
            issues.append(f"{uproc.name}: SMAS slot {uproc.slot.index} "
                          "leaked after death")
        for uproc, fds in system.runtime._kernel_fds.items():
            if not uproc.alive and fds:
                issues.append(f"{uproc.name}: {len(fds)} kernel "
                              "descriptors leaked after death")
        # Churn-aware checks: under continuous create/destroy, teardown
        # must leave no per-tenant residue in kernel-side tables.
        signals = getattr(system, "signals", None)
        if signals is not None:
            for pid, signo in signals.stale_handlers():
                issues.append(f"signal handler ({pid}, {signo}) leaked "
                              "after owner death")
        manager = getattr(system, "manager", None)
        if manager is not None:
            dead_children = sum(1 for child in manager.kprocess.children
                                if not child.alive)
            if dead_children:
                issues.append(f"{dead_children} dead boot kProcess(es) "
                              "still on the manager's child list")
        return issues
