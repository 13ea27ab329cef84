"""VESSEL's fault containment (§4.3, DESIGN.md §10): the scheduler-core
heartbeat, the preemption watchdog with its kernel-IPI fallback, crash,
rogue-thread and app teardown, and VESSEL's half of the post-run audit.

Every eviction goes through ``ColocationSystem.evict`` and every drain of
a core's command queue through :meth:`Containment.drain`.  The system's
``containment`` flag (``enabled`` here) switches the watchdog, heartbeat,
SIGSEGV handler and fallback IPI off for ablations.  These paths run
only under faults, so their ledger calls skip the ``enabled`` guard hot
paths use (``NULL_LEDGER`` ignores them).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional

from repro.kernel.signals import SIGSEGV, Signal
from repro.sim.engine import Event
from repro.uprocess.threads import UThread, UThreadState
from repro.uprocess.usignals import CommandKind

if TYPE_CHECKING:  # pragma: no cover - the scheduler imports this module
    from repro.vessel.scheduler import AppState, VesselCoreState, VesselSystem

#: how long the scheduler waits for a preemption command to be acted on
#: before escalating (normal Uintr ack is ~0.2 µs; the deadline leaves
#: an order of magnitude of slack before the watchdog interferes)
PREEMPT_ACK_NS = 3_000
#: scheduler-liveness watchdog period (a stalled scheduler core is
#: detected and kicked within one period)
HEARTBEAT_INTERVAL_NS = 50_000


class _PendingPreempt(NamedTuple):
    """One unacknowledged preemption command.  Its core's deadline
    handle is armed for ``attempt`` until the kernel-IPI escalation,
    which leaves the entry waiting on the IPI with no deadline."""

    thread: UThread
    attempt: int
    sent_at: int


class Containment:
    """Fault containment for one :class:`VesselSystem`."""

    def __init__(self, system: "VesselSystem", enabled: bool) -> None:
        self.system = system
        self.enabled = enabled
        self._pending: Dict[int, _PendingPreempt] = {}
        #: per-core deadline handle, made on the core's first preemption
        #: and re-armed by every later one
        self._deadlines: Dict[int, Event] = {}
        self.fallback_retries = 0
        self.fallback_ipis = 0
        self.contained_crashes = 0
        self.sched_restarts = 0
        self.rogue_kills = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def shield(self, state: "AppState") -> None:
        """Fault shielding (§4.3): a SIGSEGV on the app's boot kProcess
        lands in the runtime's handler, which tears the uProcess down
        without touching co-located ones.  Without containment the
        kernel's default action applies."""
        if self.enabled:
            self.system.signals.register(
                state.uproc.boot_kprocess, SIGSEGV,
                lambda proc, sig, s=state: self._on_sigsegv(s))

    def start(self) -> None:
        """Install the kernel-IPI escape hatch for preemptions the Uintr
        path never acknowledges (dropped delivery, rogue thread) and
        start the scheduler-liveness heartbeat."""
        if not self.enabled:
            return
        system = self.system
        for core_id in system._cores:
            system.machine.ipi.register_handler(
                core_id, lambda vec, cid=core_id: self._on_fallback_ipi(cid))
        system.sim.post(HEARTBEAT_INTERVAL_NS, self._heartbeat)

    # ------------------------------------------------------------------
    # Scheduler-core liveness (fault class "d")
    # ------------------------------------------------------------------
    def stall_scheduler(self) -> None:
        """Fault injection: the dedicated scheduler core stops polling.

        Arrivals and rebalancing cease; worker cores keep draining what
        they already have.  With containment on, the kernel-side
        heartbeat notices within one period and restarts the scan loop.
        """
        system = self.system
        system._sched_stalled = True
        system._scan_handle.cancel()
        system.ledger.count_op("fault:sched_stall",
                               core=system._scheduler_core_id, domain="fault")

    def _heartbeat(self) -> None:
        system = self.system
        now = system.sim.now
        if system._sched_stalled \
                or now - system._last_scan_ns > HEARTBEAT_INTERVAL_NS:
            self.sched_restarts += 1
            system.ledger.count_op("fallback:sched_restart",
                                   core=system._scheduler_core_id,
                                   domain="fallback")
            # The kernel watchdog kicks the scheduler process back onto
            # its core (modeled as one ioctl on the manager's kProcess).
            system.manager.syscalls.ioctl(system.manager.kprocess,
                                          "watchdog_restart")
            system._sched_stalled = False
            system._last_scan_ns = now
            # Restart the one scan chain now; a pending pass (the scan
            # ran late but never stalled) is replaced, not doubled.
            system._scan_handle.cancel()
            system.sim.rearm(system._scan_handle, 0)
        system.sim.post(HEARTBEAT_INTERVAL_NS, self._heartbeat)

    # ------------------------------------------------------------------
    # Preemption watchdog (fault classes "a" and "c")
    # ------------------------------------------------------------------
    def watch(self, state: "VesselCoreState", thread: UThread,
              attempt: int = 1) -> None:
        """Arm the deadline for a preemption sent to ``state.core``."""
        if not self.enabled:
            return
        sim = self.system.sim
        core_id = state.core.id
        pending = self._pending.get(core_id)
        sent_at = pending.sent_at if pending is not None else sim.now
        deadline = self._deadlines.get(core_id)
        if deadline is None:
            deadline = self._deadlines[core_id] = sim.handle(
                self._preempt_deadline, state)
        if deadline.seq:
            # One deadline per core: a newer preemption replaces it.
            deadline.cancel()
        sim.rearm(deadline, PREEMPT_ACK_NS)
        self._pending[core_id] = _PendingPreempt(thread, attempt, sent_at)

    def ack(self, core_id: int) -> Optional[_PendingPreempt]:
        """The preemption pending on ``core_id`` was acted on (or the
        kernel IPI took it over): drop it and disarm its deadline."""
        pending = self._pending.pop(core_id, None)
        if pending is not None:
            self._deadlines[core_id].cancel()
        return pending

    def _preempt_deadline(self, state: "VesselCoreState") -> None:
        system = self.system
        core_id = state.core.id
        pending = self._pending[core_id]
        thread = pending.thread
        if thread.gone:
            # The target vanished (its app was torn down); release the
            # core reservation so the scan can refill it.
            del self._pending[core_id]
            if state.kind == "switch" and state.batch_run is None \
                    and not state.core.busy:
                system._fill_core(state)
            return
        if pending.attempt == 1:
            # First escalation: the notification may have been lost in
            # flight, but the vector is still posted in the PIR, so a
            # fresh senduipi re-raises it at Uintr cost.
            self.fallback_retries += 1
            system.ledger.count_op("fallback:uintr_retry", core=core_id,
                                   domain="fallback")
            system.machine.uintr.senduipi(system._scheduler_core_id,
                                          state.uitt_index)
            self.watch(state, thread, attempt=2)
            return
        # Second escalation: give up on the userspace path; trap into the
        # kernel and interrupt the victim core with an IPI (~15x the
        # Uintr cost — visible in the fallback breakdown rows).  The
        # entry waits on the IPI with no deadline, re-entered last (the
        # audit lists pending preemptions in entry order).
        del self._pending[core_id]
        self._pending[core_id] = pending
        self.fallback_ipis += 1
        system.ledger.count_op("fallback:kernel_ipi", core=core_id,
                               domain="fallback")
        system.manager.syscalls.ioctl(system.manager.kprocess, "vessel_kick")
        system.machine.ipi.send(core_id, op="fallback:ipi_deliver",
                                domain="fallback")

    def _on_fallback_ipi(self, core_id: int) -> None:
        """Kernel IPI handler: forcibly evict the occupant and install
        the stuck preemption's target thread via a kernel context switch."""
        pending = self.ack(core_id)
        if pending is None:
            return  # the Uintr path won the race after all
        system = self.system
        state = system._cores[core_id]
        victim = state.thread
        # An in-flight request survives the forced switch: its unfinished
        # service returns to the front of its queue.
        system.evict(state, requeue=True)
        state.thread = None
        if victim is not None and victim.state is not UThreadState.DEAD:
            if victim.rogue:
                # A thread that ignores the preemption protocol loses its
                # right to run (§4.3's non-cooperative case): destroy it
                # rather than return it to the best-effort queue.
                victim.core_id = None
                victim.destroy()
                self.rogue_kills += 1
                system.ledger.count_op("fault:rogue_kill", core=core_id,
                                       domain="fault")
            elif not victim.payload.is_latency:
                system._return_be(victim)
            else:
                victim.state = UThreadState.PARKED
                victim.core_id = None
                system._apps[victim.payload.name].parked.append(victim)
        # The stuck thread itself installs below; drain in kernel-forced
        # privileged mode re-routes any other live target.
        thread = pending.thread
        self.drain(state, skip=lambda other: other is thread)
        if thread.gone:
            system._fill_core(state)
            return
        state.kind = "switch"
        cost = system.costs.kernel_ctx_switch_ns
        system.ledger.charge("fallback:forced_switch", cost, core=core_id,
                             domain="fallback")
        state.core.run("kernel", cost, self._forced_switch_done, state, thread)

    def _forced_switch_done(self, state: "VesselCoreState",
                            thread: UThread) -> None:
        if thread.gone:
            self.system._fill_core(state)
            return
        self.system._start_thread(state, thread, preempt=False)

    def drain(self, state: "VesselCoreState",
              skip: Callable[[UThread], bool]) -> None:
        """Consume ``state.core``'s whole command queue in privileged
        mode.  A RUN_THREAD for a live thread ``skip`` does not select is
        re-routed to the core's FIFO: dropping it would strand a thread
        already claimed out of its app's parked list."""
        system = self.system
        core_id = state.core.id
        for command in system.domain.process_commands(core_id):
            if command.kind is not CommandKind.RUN_THREAD:
                continue
            thread = command.payload
            if skip(thread) or thread.gone:
                continue
            state.fifo.append(thread)
            system._apps[thread.payload.name].queued_servers += 1
            pending = self._pending.get(core_id)
            if pending is not None and pending.thread is thread:
                # The preemption protocol resolved by requeueing;
                # escalation would install the thread twice.
                self.ack(core_id)
                system._release_switch_reservation(state)

    # ------------------------------------------------------------------
    # uProcess crash, rogue threads and teardown (§4.3, §5.1)
    # ------------------------------------------------------------------
    def _core_running(self, app) -> Optional["VesselCoreState"]:
        """The core whose installed thread serves or runs ``app``."""
        return next((cs for cs in self.system._cores.values()
                     if cs.thread is not None and cs.thread.payload is app
                     and cs.kind in ("L", "B")), None)

    def crash_uproc(self, app_name: str) -> bool:
        """Fault injection: an MPK fault fires inside a running thread of
        ``app_name`` (a wild store hit another slot's pkey).

        The faulting instruction raises SIGSEGV on the uProcess's boot
        kProcess.  With containment the runtime's registered handler
        (§4.3) tears the uProcess down and every resource is reclaimed;
        without it the kernel's default action kills the whole kProcess
        and the core is lost (wedged) — the ablation shows exactly what
        fault shielding buys.  Returns False if no core is currently
        running the app.
        """
        system = self.system
        state = system._apps.get(app_name)
        if state is None:
            return False
        cs = self._core_running(state.app)
        if cs is None:
            return False
        system.ledger.count_op("fault:uproc_crash", core=cs.core.id,
                               domain="fault")
        # The faulting instruction aborts the in-flight segment; the
        # request it was serving is lost (clients see resets, §5.1).
        system.evict(cs)
        system.signals.post(state.uproc.boot_kprocess, Signal(SIGSEGV))
        if not self.enabled:
            # No handler registered: the kProcess dies and takes the core
            # with it.  Slot, pkey, and descriptors all leak.
            cs.core.wedge()
            cs.kind = "wedged"
            cs.thread = None
        return True

    def _on_sigsegv(self, state: "AppState") -> None:
        """Runtime SIGSEGV handler (§4.3): full crash containment.  App
        teardown unregisters it, so it only fires for a registered app."""
        self.contained_crashes += 1
        self.system.ledger.count_op("fault:crash_contained", domain="fault")
        self.detach_app(state)

    def make_rogue(self, app_name: str) -> bool:
        """Fault injection: mark ``app_name``'s currently running thread
        non-cooperative — it stops acting on preemption commands and
        never yields, until the kernel-IPI fallback evicts and kills it.
        Returns False if the app has no thread on a core right now.
        """
        system = self.system
        state = system._apps.get(app_name)
        if state is None:
            return False
        thread = next((t for t in state.threads
                       if t.state is UThreadState.RUNNING
                       and t.core_id is not None), None)
        if thread is None:
            cs = self._core_running(state.app)
            if cs is None:
                return False
            thread = cs.thread
        thread.rogue = True
        system.ledger.count_op("fault:rogue_thread", domain="fault")
        return True

    def detach_app(self, state: "AppState") -> None:
        """Tear ``state``'s application out of the scheduler: after a
        contained crash, or after the manager destroyed its uProcess."""
        system = self.system
        app = state.app
        system.policy.on_app_removed(state)
        # Preempt every core currently running (or switching to) it and
        # consume the pending kill commands in privileged mode.
        for cs in system._cores.values():
            cs.fifo.purge(lambda t: t.payload is app)
            if cs.thread is not None and cs.thread.payload is app:
                system.evict(cs)
                cs.thread = None
                cs.kind = None
            if cs.kind != "wedged":
                # The departing app's own threads are dropped: its
                # uProcess still reads alive until the reap below.
                self.drain(cs, skip=lambda t: t.payload is app)
            pending = self._pending.get(cs.core.id)
            if pending is not None and pending.thread.payload is app:
                self.ack(cs.core.id)
                system._release_switch_reservation(cs)
        # Full teardown: threads, queued commands, proxied descriptors,
        # SMAS slot + pkey (revoked until the slot is reused), and the
        # runtime's SIGSEGV registration for the departing boot kProcess.
        system.signals.unregister(state.uproc.boot_kprocess, SIGSEGV)
        system.domain.reap(state.uproc)
        system._forget_app(state)

    # ------------------------------------------------------------------
    # Post-run audit
    # ------------------------------------------------------------------
    def uncontained(self) -> List[str]:
        """VESSEL's half of the containment audit: every way a fault can
        have escaped the paths above.  Empty means nothing leaked."""
        system = self.system
        issues: List[str] = []
        if system._sched_stalled:
            issues.append("scheduler core still stalled")
        now = system.sim.now
        grace = (2 * PREEMPT_ACK_NS + system.costs.ipi_deliver_ns
                 + system.costs.kernel_ctx_switch_ns + 1_000)
        for core_id, pending in self._pending.items():
            if now - pending.sent_at > grace:
                issues.append(
                    f"preemption of core {core_id} unacknowledged for "
                    f"{now - pending.sent_at} ns")
        uprocs = system.domain.uprocs
        for uproc in uprocs:
            if uproc.alive or not uproc.slot.in_use:
                continue
            if any(u.alive and u.slot is uproc.slot for u in uprocs):
                continue  # the slot was legitimately reallocated
            issues.append(f"{uproc.name}: SMAS slot {uproc.slot.index} "
                          "leaked after death")
        for uproc, count in system.runtime.kernel_fd_counts().items():
            if not uproc.alive:
                issues.append(f"{uproc.name}: {count} kernel "
                              "descriptors leaked after death")
        # Churn-aware checks: under continuous create/destroy, teardown
        # must leave no per-tenant residue in kernel-side tables.
        for pid, signo in system.signals.stale_handlers():
            issues.append(f"signal handler ({pid}, {signo}) leaked "
                          "after owner death")
        dead_children = sum(1 for child in system.manager.kprocess.children
                            if not child.alive)
        if dead_children:
            issues.append(f"{dead_children} dead boot kProcess(es) "
                          "still on the manager's child list")
        return issues
