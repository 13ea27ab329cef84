"""The VESSEL core scheduler as a colocation system (§4.5, Figure 7b).

One-level, global policy: cores are not owned by applications.  Each
worker core has a FIFO queue of runnable threads (possibly from different
uProcesses) plus there is one global best-effort queue.  The scheduler —
a dedicated busy-polling core, like Caladan's IOKernel but far lighter —
reacts to arrivals and periodically rebalances:

* a latency app with pending requests gets more server threads, placed on
  idle cores first (UMWAIT wake + userspace install), then on cores
  running best-effort work (Uintr preemption: command queue push +
  ``senduipi``; the victim's handler passes the call gate and switches in
  ~0.36 µs), then queued on the shortest per-core FIFO;
* a core whose thread parks switches to the next FIFO thread (0.16 µs
  park switch), else pops the global BE queue, else UMWAITs;
* at request boundaries a core rotates to its FIFO head once the current
  thread has run a quantum — this is what keeps dense colocation fair
  (Figure 10) at 0.16 µs per rotation instead of 5.3 µs.

Every switch goes through the functional layer (`UserspaceSwitch`), so
PKRU values and CPUID_TO_TASK_MAP stay correct during performance runs —
the simulation would fault (MpkFault) if the mechanism were wired wrong.

Since the policy split (ghOSt-style), this module is the *mechanism*
half only: it delivers events to a pluggable :class:`SchedPolicy` and
executes the decisions the policy returns, through the same Uintr /
call-gate machinery and charging the same ledger ops.  Fault
containment (watchdog, fallback IPI, heartbeat, crash and app teardown)
lives in :mod:`repro.vessel.containment`.
The base ``SchedPolicy`` (registry name ``"default"``) reproduces the
behaviour described above byte-for-byte; pass ``policy=`` to swap in a
zoo policy.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Union

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.hardware.machine import Core, Machine
from repro.kernel.signals import KernelSignals
from repro.sched.base import ColocationSystem, CoreState, SystemReport
from repro.sched.policy import (
    Decision, Enqueue, Idle, Place, Preempt, Rotate, Run, SchedPolicy,
    make_policy)
from repro.uprocess.loader import ProgramImage
from repro.uprocess.manager import Manager
from repro.uprocess.threads import UThread, UThreadState
from repro.uprocess.usignals import Command, CommandKind
from repro.vessel.containment import Containment
from repro.vessel.runtime import VesselRuntime
from repro.workloads.base import App, Request


def _override(policy: SchedPolicy, hook: str):
    """``policy``'s bound ``hook``, or None when it is the base class's
    (inherited, not replaced on the instance either)."""
    bound = getattr(policy, hook)
    if getattr(bound, "__func__", None) is getattr(SchedPolicy, hook):
        return None
    return bound


class VesselCoreState(CoreState):
    """Scheduler-side view of one worker core (read-only to policies).

    ``kind`` is None (idle), "L", "B", "switch" or "wedged".
    """

    __slots__ = ("fifo", "thread", "run_started", "uitt_index")

    def __init__(self, core: Core, fifo) -> None:
        super().__init__(core)
        #: run queue; discipline chosen by the policy (FIFO by default)
        self.fifo = fifo
        self.thread: Optional[UThread] = None
        self.run_started = 0
        self.uitt_index = -1


class AppState:
    """Scheduler-side view of one application (read-only to policies)."""

    __slots__ = ("app", "uproc", "threads", "parked", "queued_servers")

    def __init__(self, app: App, uproc) -> None:
        self.app = app
        self.uproc = uproc
        self.threads: List[UThread] = []
        self.parked: Deque[UThread] = deque()
        #: threads sitting in some core run queue (activated, not running)
        self.queued_servers = 0


class PolicyContext:
    """The mechanism state a policy may *read* (see ``SchedPolicy.bind``).

    Policies get no direct reference to the system: every mutation goes
    through a returned :class:`Decision`, which the mechanism validates
    before executing — a buggy policy is contained the same way a buggy
    application is (§4.3).
    """

    __slots__ = ("_system",)

    def __init__(self, system: "VesselSystem") -> None:
        self._system = system

    @property
    def now(self) -> int:
        return self._system.sim.now

    @property
    def ledger(self):
        """The mechanism's op ledger, for charging policy-side control
        actions (read ``ledger.enabled`` before building arguments)."""
        return self._system.ledger

    def core_states(self):
        """Per-core states, in the fixed worker-core order."""
        return self._system._cores.values()

    def core_state(self, core_id: int) -> Optional[VesselCoreState]:
        return self._system._cores.get(core_id)

    def app_states(self):
        """Per-app states, in app-registration order."""
        return self._system._apps.values()

    def app_state(self, name: str) -> Optional[AppState]:
        return self._system._apps.get(name)

    def next_be_thread(self) -> Optional[UThread]:
        """Runnable head of the global best-effort queue (suspended
        applications skipped), without dequeuing it."""
        system = self._system
        for thread in system._be_queue:
            if thread.payload.name not in system._suspended_apps:
                return thread
        return None

    def sibling_of(self, core_id: int) -> Optional[VesselCoreState]:
        """SMT sibling's core state: worker cores pair up in order
        (first with second, third with fourth, ...); ``None`` for an
        unpaired trailing core."""
        cores = list(self._system._cores.values())
        for index, state in enumerate(cores):
            if state.core.id == core_id:
                mate = index + 1 if index % 2 == 0 else index - 1
                if 0 <= mate < len(cores):
                    return cores[mate]
                return None
        return None


class VesselSystem(ColocationSystem):
    """VESSEL over a scheduling domain of uProcesses."""

    name = "vessel"

    def __init__(self, sim: Simulator, machine: Machine, rngs: RngStreams,
                 worker_cores: Optional[List[Core]] = None,
                 policy: Union[SchedPolicy, str, None] = None,
                 containment: bool = True) -> None:
        super().__init__(sim, machine, rngs, worker_cores)
        if policy is None:
            policy = make_policy("default")
        elif isinstance(policy, str):
            policy = make_policy(policy)
        self.policy = policy
        #: per-request policy hooks, resolved once: None where the policy
        #: keeps the base class's, which the serving loop then does
        #: inline (the FCFS pop) or skips (the no-op hooks)
        self._pick_request = _override(policy, "pick_request")
        self._on_request_done = _override(policy, "on_request_done")
        self._on_thread_park = _override(policy, "on_thread_park")
        #: failure containment (preemption watchdog, SIGSEGV teardown,
        #: scheduler-liveness heartbeat); ``containment=False`` is the
        #: ablation toggle for fault-injection experiments
        self.containment = Containment(self, enabled=containment)
        self.rng = rngs.stream("vessel")
        self.manager = Manager(costs=self.costs, rng=self.rng,
                               ledger=self.ledger)
        self.signals = KernelSignals(sim, self.costs, ledger=self.ledger)
        self.domain = self.manager.create_domain(self.worker_cores,
                                                 name="vessel-domain")
        self.runtime = VesselRuntime(self.domain)
        self.switcher = self.domain.switcher
        self.policy.bind(PolicyContext(self))
        self._cores: Dict[int, VesselCoreState] = {
            core.id: VesselCoreState(core, self.policy.make_core_queue())
            for core in self.worker_cores
        }
        self._apps: Dict[str, AppState] = {}
        self._be_queue: Deque[UThread] = deque()
        self._scheduler_core_id = 0  # the dedicated busy-polling core
        self._suspended_apps: set = set()
        self._suspended_threads: Deque[UThread] = deque()
        self.preemptions = 0
        self.rotations = 0
        #: decisions the mechanism refused to execute (buggy policy)
        self.policy_rejects = 0
        #: the scan interval, and the delay from an arrival to the
        #: scheduler core acting on it: at least half a scan, stretched
        #: by scheduler-core congestion.  Fixed by the worker count and
        #: cost model, so derived once here (arrivals may be submitted
        #: before ``start``).
        self._scan_ns = self.effective_scan_ns
        self._react_ns = int(max(self.costs.sched_react_ns,
                                 self._scan_ns // 2)
                             * self.control_plane_factor)
        # Scan-loop liveness, stalled and restarted by containment.
        self._sched_stalled = False
        self._last_scan_ns = 0
        #: the scan loop's one handle, re-armed by every pass
        self._scan_handle = sim.handle(self._scan)
        #: decision type -> executor (see _execute)
        self._executors = {
            Place: self._exec_place, Preempt: self._exec_preempt,
            Enqueue: self._exec_enqueue, Run: self._exec_run,
            Idle: self._exec_idle,
        }

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def add_app(self, app: App) -> None:
        super().add_app(app)
        uproc = self.manager.create_uprocess(
            self.domain, ProgramImage(app.name), name=app.name)
        state = AppState(app, uproc)
        self.containment.shield(state)
        self._apps[app.name] = state
        count = len(self.worker_cores)
        for i in range(count):
            thread = self.runtime.pthread_create(uproc, f"{app.name}/w{i}")
            thread.state = UThreadState.PARKED
            thread.payload = app
            state.threads.append(thread)
            if app.is_latency:
                state.parked.append(thread)
            else:
                self._be_queue.append(thread)
        self.policy.on_app_added(state)

    @property
    def effective_scan_ns(self) -> int:
        """Scan interval, stretched when the per-core pass outgrows it."""
        per_pass = len(self.worker_cores) * self.costs.vessel_sched_per_core_ns
        return max(self.costs.vessel_scan_interval_ns, per_pass)

    @property
    def control_plane_factor(self) -> float:
        """Reaction-latency multiplier from scheduler-core congestion.

        One scheduler core does ``vessel_sched_per_core_ns`` of work per
        managed core per scan; as its utilization approaches 1 the time
        until it acts on a fresh signal grows like 1/(1-rho) — this is
        the Figure 12 scaling knee (~42 cores for VESSEL).
        """
        rho = (len(self.worker_cores) * self.costs.vessel_sched_per_core_ns
               / self.costs.vessel_scan_interval_ns)
        return 1.0 / (1.0 - min(rho, 0.97))

    def on_start(self) -> None:
        uintr = self.machine.uintr
        for state in self._cores.values():
            core_id = state.core.id
            uintr.register_handler(core_id,
                                   lambda vec, cid=core_id: self._on_uintr(cid))
            state.uitt_index = uintr.register_sender(
                self._scheduler_core_id, core_id, vector=1)
        # Prime every core with best-effort work.
        for state in self._cores.values():
            self._fill_core(state)
        self._last_scan_ns = self.sim.now
        self.sim.rearm(self._scan_handle, self._scan_ns)
        self.containment.start()

    def report(self) -> SystemReport:
        """The base report plus the policy's own results (the
        autoscaler's controller state)."""
        report = super().report()
        self.policy.contribute(report)
        return report

    def add_probes(self, gauges) -> None:
        self.policy.add_probes(gauges)

    def uncontained(self) -> List[str]:
        return super().uncontained() + self.containment.uncontained()

    def has_app(self, name: str) -> bool:
        """Whether ``name`` is registered and not yet torn down."""
        return name in self._apps

    # ------------------------------------------------------------------
    # Arrival path
    # ------------------------------------------------------------------
    def on_arrival(self, app: App, request: Request) -> None:
        # The busy-polling scheduler notices new work within one poll
        # iteration; the reaction itself happens out-of-band, the worker
        # core pays only for its own switch.
        state = self._apps.get(app.name)
        if state is None:
            # The application was destroyed; clients see resets (§5.1).
            app.queue.clear()
            return
        if self._sched_stalled:
            # The scheduler core is not polling; requests pile up in the
            # app queue until the liveness watchdog restarts the scan.
            return
        self.sim.post(self._react_ns, self._dispatch_app, state)

    def _dispatch_app(self, state: AppState) -> None:
        """Ensure enough server threads are active for this app's queue."""
        if not state.app.queue:
            return
        decisions = self.policy.on_arrival(state)
        if decisions:       # the default returns () when none can come
            self._run_decisions(decisions)

    def _return_be(self, thread: UThread) -> None:
        """Park a best-effort thread back into the global queue."""
        thread.state = UThreadState.PARKED
        thread.core_id = None
        self._be_queue.append(thread)

    # ------------------------------------------------------------------
    # Decision execution.  The policy computes one decision at a time
    # against live state; the mechanism validates and executes it before
    # the policy's generator resumes — so the sequential behaviour is
    # exactly the pre-framework inline code's, and an invalid decision
    # from a buggy policy is rejected instead of corrupting state.
    # ------------------------------------------------------------------
    def _run_decisions(self, decisions) -> None:
        for decision in decisions:
            if decision is not None:
                self._execute(decision)

    def _reject(self, decision: Decision) -> bool:
        self.policy_rejects += 1
        if self.ledger.enabled:
            self.ledger.count_op("policy:rejected", domain="policy")
        return False

    def _execute(self, decision: Decision) -> bool:
        """Validate + execute one decision; False if it was rejected."""
        executor = self._executors.get(type(decision))
        if executor is None:
            # Rotate is only meaningful at a request boundary; the
            # serving loop consumes it directly (see _serve_next).
            return self._reject(decision)
        return executor(decision)

    def _take_parked(self, thread: UThread) -> Optional[AppState]:
        """Claim a parked latency thread for placement, or None."""
        app_state = self._apps.get(thread.payload.name)
        if app_state is None or thread not in app_state.parked:
            return None
        app_state.parked.remove(thread)
        return app_state

    def _exec_place(self, decision: Place) -> bool:
        state = self._cores.get(decision.core_id)
        if state is None or state.kind is not None or state.core.busy:
            return self._reject(decision)
        if self._take_parked(decision.thread) is None:
            return self._reject(decision)
        self._wake_core_with(state, decision.thread)
        return True

    def _exec_preempt(self, decision: Preempt) -> bool:
        state = self._cores.get(decision.core_id)
        if state is None or decision.victim is not state.thread:
            return self._reject(decision)
        if state.kind == "B":
            if decision.incoming is None:
                return self._exec_force_idle(state)
            if self._take_parked(decision.incoming) is None:
                return self._reject(decision)
            self._preempt_for(state, decision.incoming)
            return True
        if state.kind == "L":
            return self._exec_l_preempt(state, decision)
        return self._reject(decision)

    def _exec_force_idle(self, state: VesselCoreState) -> bool:
        """Evict a best-effort thread with no replacement (the forced
        idle of Linux core scheduling: a mismatched SMT sibling must
        not run)."""
        self.preemptions += 1
        if self.ledger.enabled:
            self.ledger.count_op("sched_preemption", core=state.core.id,
                                 domain="vessel")
        self.evict(state)
        thread = state.thread
        state.thread = None
        state.kind = None
        if thread is not None:
            self._return_be(thread)
        state.core.set_idle()
        return True

    def _exec_enqueue(self, decision: Enqueue) -> bool:
        state = self._cores.get(decision.core_id)
        if state is None or state.kind != "L":
            return self._reject(decision)
        app_state = self._take_parked(decision.thread)
        if app_state is None:
            return self._reject(decision)
        state.fifo.append(decision.thread)
        app_state.queued_servers += 1
        return True

    def _exec_run(self, decision: Run) -> bool:
        state = self._cores.get(decision.core_id)
        if state is None or state.kind is not None or state.core.busy \
                or state.batch_run is not None:
            return self._reject(decision)
        thread = decision.thread
        if thread in state.fifo:
            state.fifo.remove(thread)
            self._apps[thread.payload.name].queued_servers -= 1
            self._start_thread(state, thread, preempt=False)
            return True
        if thread in self._be_queue:
            if thread.payload.name in self._suspended_apps:
                return self._reject(decision)
            # Suspended threads queued ahead of the chosen one step
            # aside (exactly the old _fill_core pop-and-skip loop).
            while self._be_queue and self._be_queue[0] is not thread \
                    and self._be_queue[0].payload.name in self._suspended_apps:
                self._suspended_threads.append(self._be_queue.popleft())
            self._be_queue.remove(thread)
            self._start_thread(state, thread, preempt=False)
            return True
        return self._reject(decision)

    def _exec_idle(self, decision: Idle) -> bool:
        state = self._cores.get(decision.core_id)
        if state is None or state.kind is not None or state.core.busy:
            return self._reject(decision)
        # Threads of suspended apps at the BE queue's head move to the
        # held list (the old _fill_core drained them while searching).
        while self._be_queue \
                and self._be_queue[0].payload.name in self._suspended_apps:
            self._suspended_threads.append(self._be_queue.popleft())
        state.kind = None
        state.thread = None
        state.core.set_idle()
        return True

    # ------------------------------------------------------------------
    # Periodic scan (rebalance + BE filling)
    # ------------------------------------------------------------------
    def _scan(self) -> None:
        if self._sched_stalled:
            return
        self._last_scan_ns = self.sim.now
        self._run_decisions(self.policy.on_tick())
        self.sim.rearm(self._scan_handle, self._scan_ns)

    def _exec_l_preempt(self, state: VesselCoreState, decision: Preempt) -> bool:
        """§4.4 preemption: a long request is hogging a core other
        latency threads are queued on.  The request is suspended (its
        remaining service returns to the front of its app's queue) and
        the core rotates via a Uintr-priced switch."""
        if state.request is None or decision.incoming not in state.fifo:
            return self._reject(decision)
        self.evict(state, requeue=True)
        self.preemptions += 1
        if self.ledger.enabled:
            self.ledger.count_op("sched_preemption", core=state.core.id,
                                 domain="vessel")
        thread = state.thread
        app_state = self._apps[thread.payload.name]
        thread.state = UThreadState.PARKED
        state.fifo.append(thread)
        app_state.queued_servers += 1
        state.thread = None
        state.kind = None
        self.switcher.park_current(state.core)
        next_thread = decision.incoming
        state.fifo.remove(next_thread)
        self._apps[next_thread.payload.name].queued_servers -= 1
        self._start_thread(state, next_thread, preempt=True)
        return True

    def _fill_core(self, state: VesselCoreState) -> None:
        """Vacate the core and ask the policy what to run (queue head
        first, then the global BE queue, else UMWAIT, under the default
        policy)."""
        state.kind = None
        state.thread = None
        decision = self.policy.on_core_idle(state)
        if decision is None or not self._execute(decision):
            # A policy that answers nothing executable leaves the core
            # in UMWAIT; the next scan asks again.
            state.core.set_idle()

    # ------------------------------------------------------------------
    # Switching machinery
    # ------------------------------------------------------------------
    def _wake_core_with(self, state: VesselCoreState, thread: UThread) -> None:
        """UMWAIT wake + install (the core was idle)."""
        state.kind = "switch"
        state.thread = thread
        if self.ledger.enabled:
            self.ledger.charge("umwait_wake", self.costs.umwait_wake_ns,
                               core=state.core.id, domain="vessel")
        cost = self.costs.umwait_wake_ns + self.switcher.switch(
            state.core, thread, preempt=False)
        state.core.run("runtime", cost, self._begin_run, state)

    def _preempt_for(self, state: VesselCoreState, thread: UThread) -> None:
        """Preempt the BE thread on ``state.core`` in favour of ``thread``.

        Functional path: push a command, ``senduipi``; the handler fires
        after the hardware delivery latency and performs the switch.
        """
        self.preemptions += 1
        if self.ledger.enabled:
            self.ledger.count_op("sched_preemption", core=state.core.id,
                                 domain="vessel")
        self.domain.queues.of(state.core.id).push(
            Command(CommandKind.RUN_THREAD, thread))
        # Reserve the core so concurrent dispatches pick other victims.
        state.kind = "switch"
        self.machine.uintr.senduipi(self._scheduler_core_id, state.uitt_index)
        self.containment.watch(state, thread)

    def _on_uintr(self, core_id: int) -> None:
        """Uintr handler: runs on the victim core, in privileged mode."""
        state = self._cores[core_id]
        current = state.thread
        if current is not None and current.rogue:
            # Non-cooperative thread: it runs with user interrupts masked,
            # so the handler never executes and commands stay queued.  The
            # watchdog escalates to the kernel-IPI path.
            if self.ledger.enabled:
                self.ledger.count_op("fault:rogue_ignore", core=core_id,
                                     domain="fault")
            return
        self.containment.ack(core_id)
        commands = self.domain.process_commands(core_id)
        for command in commands:
            if command.kind is not CommandKind.RUN_THREAD:
                continue
            thread = command.payload
            if thread.gone:
                continue
            if state.batch_run is not None:
                self.evict(state)
                if state.thread is not None:
                    self._return_be(state.thread)
            elif state.core.busy:
                # The core moved on (e.g. started an L thread) between
                # send and delivery; queue the thread instead.
                state.fifo.append(thread)
                self._apps[thread.payload.name].queued_servers += 1
                continue
            self._start_thread(state, thread, preempt=True)
        # Every command may have targeted a since-dead thread (its app
        # was torn down between send and delivery): release the core
        # reservation or a batch chunk's completion would wait forever
        # for an install that is never coming.
        self._release_switch_reservation(state)
        if state.kind is None and not state.core.busy:
            self._fill_core(state)

    def _release_switch_reservation(self, state: VesselCoreState) -> None:
        """Clear a stale "switch" reservation whose incoming thread is
        gone (command consumed, or its app died mid-protocol).  A still
        running batch chunk keeps the core; an empty idle core returns
        to the pool for the next scan."""
        if state.kind != "switch":
            return
        if state.batch_run is not None:
            state.kind = "B"
        elif not state.core.busy:
            state.kind = None
            state.thread = None

    def _start_thread(self, state: VesselCoreState, thread: UThread,
                      preempt: bool) -> None:
        state.kind = "switch"
        state.thread = thread
        cost = self.switcher.switch(state.core, thread, preempt=preempt)
        if preempt:
            # senduipi + delivery already elapsed as event time.
            cost = max(1, cost - self.costs.uintr_send_ns
                       - self.costs.uintr_deliver_ns)
        state.core.run("runtime", cost, self._begin_run, state)

    def _begin_run(self, state: VesselCoreState) -> None:
        thread = state.thread
        assert thread is not None
        app: App = thread.payload
        state.run_started = self.sim.now
        if app.is_latency:
            state.kind = "L"
            self._serve_next(state)
        else:
            state.kind = "B"
            self._run_batch_chunk(state)

    # ------------------------------------------------------------------
    # Latency-app serving loop
    # ------------------------------------------------------------------
    def _serve_next(self, state: VesselCoreState) -> None:
        thread = state.thread
        app: App = thread.payload
        # Time-sliced rotation: at a request boundary, yield to the run
        # queue's head once this thread has held the core for its
        # policy-set quantum.  The slice ends early anyway whenever the
        # app's queue drains, so the quantum only binds for backlogged
        # applications, and is asked only when a thread is queued.
        if state.fifo:
            quantum = self.policy.quantum_ns(state)
            if quantum is not None \
                    and self.sim.now - state.run_started >= quantum:
                decision = self.policy.on_quantum_expiry(state)
                if isinstance(decision, Rotate) \
                        and decision.core_id == state.core.id:
                    self.rotations += 1
                    if self.ledger.enabled:
                        self.ledger.count_op("sched_rotation",
                                             core=state.core.id,
                                             domain="vessel")
                    self._park_thread(state, requeue=bool(app.queue))
                    return
                # None (or anything else): the policy lets the thread
                # keep the core past its quantum.
        pick = self._pick_request
        if pick is not None:
            request = pick(state, app)
        else:
            queue = app.queue
            request = queue.popleft() if queue else None
        if request is None:
            if self._on_thread_park is not None:
                self._on_thread_park(state, thread)
            self._park_thread(state, requeue=False)
            return
        state.request = request
        service_ns = self.begin_service(request, state.core.id)
        state.core.run(app.category, service_ns, self._request_done, state,
                       request)

    def _request_done(self, state: VesselCoreState, request: Request) -> None:
        state.request = None
        self.end_service(request)
        if self._on_request_done is not None:
            self._on_request_done(state, request)
        self._serve_next(state)

    def _park_thread(self, state: VesselCoreState, requeue: bool) -> None:
        """The current thread parks (queue empty) or rotates (requeue)."""
        thread = state.thread
        app_state = self._apps[thread.payload.name]
        thread.state = UThreadState.PARKED
        if requeue:
            state.fifo.append(thread)
            app_state.queued_servers += 1
        else:
            app_state.parked.append(thread)
        # The park's call-gate traversal is part of the switch cost the
        # next _start_thread charges (that composite is what Table 1's
        # ping-pong experiment measures).
        self.switcher.park_current(state.core)
        self._fill_core(state)

    # ------------------------------------------------------------------
    # Batch chunks
    # ------------------------------------------------------------------
    def _run_batch_chunk(self, state: VesselCoreState) -> None:
        thread = state.thread
        app: App = thread.payload
        work = app.batch_work
        state.batch_run = work.start(state.core, self._batch_chunk_done,
                                     state)

    def _batch_chunk_done(self, state: VesselCoreState) -> None:
        state.batch_run = None
        if state.thread is not None and state.thread.rogue \
                and state.thread.state is not UThreadState.DEAD:
            # A rogue thread never yields at chunk boundaries either: it
            # immediately starts more work, holding the core until the
            # kernel-IPI fallback evicts it.  (kind is left untouched so
            # an in-flight "switch" reservation stays visible.)
            self._run_batch_chunk(state)
            return
        if state.kind == "switch":
            # A preemption Uintr is in flight; hand the BE thread back and
            # let the handler install the latency thread on arrival.
            if state.thread is not None:
                self._return_be(state.thread)
                state.thread = None
            return
        if state.kind != "B" or state.thread is None:
            return
        # Yield to queued latency threads at chunk boundaries for free.
        if state.fifo:
            self._return_be(state.thread)
            self._fill_core(state)
            return
        self._run_batch_chunk(state)

    # ------------------------------------------------------------------
    # Application teardown (the §5.1 manager kill path)
    # ------------------------------------------------------------------
    def remove_app(self, app_name: str):
        """Destroy an application (the §5.1 manager kill flow)."""
        state = self._apps.get(app_name)
        if state is None:
            raise KeyError(f"no app named {app_name!r}")
        self.manager.destroy_uprocess(self.domain, state.uproc)
        self.containment.detach_app(state)
        return state.app

    def _forget_app(self, state: AppState) -> None:
        """Drop a torn-down app's threads, queued requests and bookkeeping,
        then refill the cores its teardown freed."""
        app = state.app
        self._be_queue = deque(t for t in self._be_queue
                               if t.payload is not app)
        self._suspended_threads = deque(t for t in self._suspended_threads
                                        if t.payload is not app)
        # In-flight requests of a dead application are dropped (clients
        # observe connection resets).
        app.queue.clear()
        self._apps.pop(app.name, None)
        if app in self.apps:
            self.apps.remove(app)
        state.parked.clear()
        state.queued_servers = 0
        self._refill_idle()

    def _refill_idle(self) -> None:
        for cs in self._cores.values():
            if cs.kind is None and not cs.core.busy:
                self._fill_core(cs)

    # ------------------------------------------------------------------
    # Batch-app duty cycling (used by bandwidth regulation, Figure 13b)
    # ------------------------------------------------------------------
    def suspend_batch_app(self, app_name: str) -> None:
        """Stop scheduling this B-app; running chunks are preempted now.

        Core reallocation in VESSEL is cheap enough (~0.16 µs) that
        suspending and resuming at tens-of-microseconds windows is viable
        — this is exactly what makes its bandwidth regulation accurate.
        """
        if app_name in self._suspended_apps:
            return
        self._suspended_apps.add(app_name)
        for state in self._cores.values():
            if state.kind == "B" and state.thread is not None \
                    and state.thread.payload.name == app_name:
                self.evict(state)
                state.thread.state = UThreadState.PARKED
                state.thread.core_id = None
                self._suspended_threads.append(state.thread)
                self._fill_core(state)

    def resume_batch_app(self, app_name: str) -> None:
        """Allow the B-app to be scheduled again."""
        if app_name not in self._suspended_apps:
            return
        self._suspended_apps.discard(app_name)
        held = [t for t in self._suspended_threads
                if t.payload.name == app_name]
        self._suspended_threads = deque(
            t for t in self._suspended_threads
            if t.payload.name != app_name)
        self._be_queue.extend(held)
        self._refill_idle()
