"""The Completely Fair Scheduler.

A working CFS implementation over the simulated machine, used by the
Linux-CFS baseline of Figure 9: per-core runqueues ordered by virtual
runtime, the kernel's nice-to-weight table, timeslices derived from
``sched_latency`` with a ``min_granularity`` floor, sleeper credit on
wakeup, and wakeup preemption gated by ``wakeup_granularity``.

Modeling note (documented deviation): in the real kernel the decision of
whether a wakeup preempts the current task involves several features
(WAKEUP_PREEMPTION, GENTLE_FAIR_SLEEPERS, buddy systems) whose combined
observable effect for a high-priority latency app colocated with
nice-19 batch work is a *millisecond-scale reaction time* (measured in
Shenango §2 / Caladan §2 and reproduced in this paper's Figure 9).  We
model that observable directly: the current task is protected from wakeup
preemption until it has consumed ``min_granularity`` of wall time since
being picked, after which the standard vruntime-difference check applies.

Tasks plug in through :class:`CfsTask`: the scheduler pulls work chunks
from the task and runs them on cores; a task with no chunk sleeps until
:meth:`CfsScheduler.wake`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim.engine import Simulator
from repro.hardware.machine import Core
from repro.hardware.timing import CostModel
from repro.kernel.kprocess import KThread, ThreadState
from repro.obs.ledger import NULL_LEDGER, OpLedger

#: the kernel's sched_prio_to_weight table (kernel/sched/core.c)
_WEIGHTS = [
    88761, 71755, 56483, 46273, 36291,   # -20 .. -16
    29154, 23254, 18705, 14949, 11916,   # -15 .. -11
    9548, 7620, 6100, 4904, 3906,        # -10 .. -6
    3121, 2501, 1991, 1586, 1277,        # -5 .. -1
    1024,                                # 0
    820, 655, 526, 423, 335,             # 1 .. 5
    272, 215, 172, 137, 110,             # 6 .. 10
    87, 70, 56, 45, 36,                  # 11 .. 15
    29, 23, 18, 15,                      # 16 .. 19
]

NICE_0_WEIGHT = 1024


def nice_to_weight(nice: int) -> int:
    """Kernel weight for a nice level in [-20, 19]."""
    if not -20 <= nice <= 19:
        raise ValueError(f"nice {nice} out of range")
    return _WEIGHTS[nice + 20]


@dataclass
class Chunk:
    """One runnable piece of work a task hands to the scheduler."""

    duration_ns: int
    category: str = "app"
    on_complete: Optional[Callable[[], None]] = None


class CfsTask:
    """Work source for one thread; subclass or duck-type ``next_chunk``."""

    def next_chunk(self) -> Optional[Chunk]:
        """The next piece of work, or None to sleep."""
        raise NotImplementedError


@dataclass
class CfsParams:
    """Tunables (kernel defaults for a large machine)."""

    sched_latency_ns: int = 24_000_000
    min_granularity_ns: int = 3_000_000
    wakeup_granularity_ns: int = 4_000_000
    tick_ns: int = 1_000_000


class _Runqueue:
    """Per-core CFS runqueue."""

    __slots__ = ("core", "heap", "min_vruntime", "curr", "curr_picked_at",
                 "curr_last_update", "tick_event", "nr_running")

    def __init__(self, core: Core) -> None:
        self.core = core
        self.heap: List = []  # (vruntime, tid, thread)
        self.min_vruntime = 0.0
        self.curr: Optional[KThread] = None
        self.curr_picked_at = 0
        self.curr_last_update = 0
        self.tick_event = None
        self.nr_running = 0  # queued + running

    def push(self, thread: KThread) -> None:
        heapq.heappush(self.heap, (thread.vruntime, thread.tid, thread))

    def pop(self) -> Optional[KThread]:
        while self.heap:
            _, _, thread = heapq.heappop(self.heap)
            if thread.state is ThreadState.RUNNABLE:
                return thread
        return None

    def total_weight(self) -> int:
        weight = 0
        if self.curr is not None:
            weight += nice_to_weight(self.curr.nice)
        for _, _, thread in self.heap:
            if thread.state is ThreadState.RUNNABLE:
                weight += nice_to_weight(thread.nice)
        return weight


class CfsScheduler:
    """CFS over a set of cores.

    The owning system registers (thread, task) pairs, wakes threads when
    work arrives, and the scheduler does the rest: placement, timeslicing,
    preemption, sleeping, and context-switch cost accounting.
    """

    def __init__(self, sim: Simulator, cores: List[Core],
                 costs: Optional[CostModel] = None,
                 params: Optional[CfsParams] = None,
                 ledger: Optional[OpLedger] = None) -> None:
        self.sim = sim
        self.cores = cores
        self.costs = costs or CostModel()
        self.params = params or CfsParams()
        self.ledger = ledger or NULL_LEDGER
        self._rqs: Dict[int, _Runqueue] = {c.id: _Runqueue(c) for c in cores}
        self._tasks: Dict[int, CfsTask] = {}
        self.context_switches = 0
        self.wakeup_preemptions = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def register(self, thread: KThread, task: CfsTask) -> None:
        """Attach a work source to ``thread``; it starts sleeping."""
        self._tasks[thread.tid] = task
        thread.state = ThreadState.SLEEPING
        thread.payload = None  # partial chunk (Chunk, remaining) when preempted

    def wake(self, thread: KThread) -> None:
        """Make ``thread`` runnable (no-op if it already is)."""
        if thread.state in (ThreadState.RUNNABLE, ThreadState.RUNNING):
            return
        if thread.state is ThreadState.DEAD:
            raise RuntimeError(f"waking dead thread {thread.name}")
        rq = self._place(thread)
        # Sleeper credit: don't let long sleepers hoard unbounded lag.
        credit = self.params.sched_latency_ns / 2
        thread.vruntime = max(thread.vruntime, rq.min_vruntime - credit)
        thread.state = ThreadState.RUNNABLE
        thread.last_core = rq.core.id
        rq.nr_running += 1
        rq.push(thread)
        if rq.curr is None:
            if self.ledger.enabled:
                self.ledger.charge("cfs_wakeup", self.costs.cfs_wakeup_ns,
                                   core=rq.core.id, domain="kernel")
            self.sim.post(self.costs.cfs_wakeup_ns, self._maybe_start, rq)
        else:
            self._check_wakeup_preempt(rq, thread)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _place(self, thread: KThread) -> _Runqueue:
        """select_task_rq: idle core first, then cache-affine, then least
        loaded."""
        for rq in self._rqs.values():
            if rq.curr is None and rq.nr_running == 0:
                return rq
        if thread.last_core is not None and thread.last_core in self._rqs:
            return self._rqs[thread.last_core]
        return min(self._rqs.values(), key=lambda rq: rq.nr_running)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def _maybe_start(self, rq: _Runqueue) -> None:
        if rq.curr is None and not rq.core.busy:
            self._pick_next(rq)

    def _pick_next(self, rq: _Runqueue) -> None:
        thread = rq.pop()
        if thread is None:
            rq.curr = None
            if rq.tick_event is not None:
                rq.tick_event.cancel()
                rq.tick_event = None
            rq.core.set_idle()
            return
        rq.curr = thread
        thread.state = ThreadState.RUNNING
        rq.curr_picked_at = self.sim.now
        rq.curr_last_update = self.sim.now
        if rq.tick_event is None:
            rq.tick_event = self.sim.after(self.params.tick_ns, self._tick, rq)
        self._run_chunk(rq)

    def _run_chunk(self, rq: _Runqueue) -> None:
        thread = rq.curr
        assert thread is not None
        partial = thread.payload
        if partial is not None:
            chunk, remaining = partial
            thread.payload = None
        else:
            chunk = self._tasks[thread.tid].next_chunk()
            if chunk is None:
                self._sleep_current(rq)
                return
            remaining = chunk.duration_ns
        thread._cfs_chunk = chunk
        rq.core.run(chunk.category, remaining,
                    self._chunk_done, rq, thread, chunk)

    def _chunk_done(self, rq: _Runqueue, thread: KThread, chunk: Chunk) -> None:
        if rq.curr is not thread:
            return  # stale completion after a preemption race
        thread._cfs_chunk = None
        self._update_vruntime(rq)
        if chunk.on_complete is not None:
            chunk.on_complete()
        if thread.state is not ThreadState.RUNNING:
            # on_complete killed or slept the thread
            rq.curr = None
            rq.nr_running = max(0, rq.nr_running - 1)
            self._pick_next(rq)
            return
        self._run_chunk(rq)

    def _sleep_current(self, rq: _Runqueue) -> None:
        thread = rq.curr
        assert thread is not None
        thread.state = ThreadState.SLEEPING
        rq.curr = None
        rq.nr_running = max(0, rq.nr_running - 1)
        self._switch_cost_then(rq, self._pick_next)

    # ------------------------------------------------------------------
    # Ticks, preemption, vruntime
    # ------------------------------------------------------------------
    def _update_vruntime(self, rq: _Runqueue) -> None:
        thread = rq.curr
        if thread is None:
            return
        now = self.sim.now
        delta = now - rq.curr_last_update
        rq.curr_last_update = now
        if delta <= 0:
            return
        thread.vruntime += delta * NICE_0_WEIGHT / nice_to_weight(thread.nice)
        rq.min_vruntime = max(rq.min_vruntime, thread.vruntime)

    def _slice_ns(self, rq: _Runqueue, thread: KThread) -> int:
        total = rq.total_weight()
        if total <= 0:
            return self.params.min_granularity_ns
        share = (self.params.sched_latency_ns
                 * nice_to_weight(thread.nice) / total)
        return max(self.params.min_granularity_ns, int(share))

    def _tick(self, rq: _Runqueue) -> None:
        rq.tick_event = None
        if rq.curr is None:
            return
        self._update_vruntime(rq)
        ran = self.sim.now - rq.curr_picked_at
        should_resched = False
        if ran >= self._slice_ns(rq, rq.curr) and rq.heap:
            should_resched = True
        if should_resched:
            self._preempt_current(rq)
        else:
            rq.tick_event = self.sim.after(self.params.tick_ns, self._tick, rq)

    def _check_wakeup_preempt(self, rq: _Runqueue, woken: KThread) -> None:
        curr = rq.curr
        if curr is None:
            return
        # Documented approximation: curr keeps the core until it has run
        # min_granularity since being picked (see module docstring).
        ran = self.sim.now - rq.curr_picked_at
        if ran < self.params.min_granularity_ns:
            return
        self._update_vruntime(rq)
        gran = (self.params.wakeup_granularity_ns
                * NICE_0_WEIGHT / nice_to_weight(woken.nice))
        if curr.vruntime - woken.vruntime > gran:
            self.wakeup_preemptions += 1
            self._preempt_current(rq)

    def _preempt_current(self, rq: _Runqueue) -> None:
        thread = rq.curr
        assert thread is not None
        if rq.core.busy:
            remaining = rq.core.preempt()
            # Reconstruct the partial chunk so the thread resumes later.
            # We stored the chunk in the completion closure; recover it by
            # keeping it on the thread instead.
            chunk = self._current_chunk_of(thread)
            if chunk is not None and remaining > 0:
                thread.payload = (chunk, remaining)
        self._update_vruntime(rq)
        thread.state = ThreadState.RUNNABLE
        rq.push(thread)
        rq.curr = None
        self._switch_cost_then(rq, self._pick_next)

    # ------------------------------------------------------------------
    def _switch_cost_then(self, rq: _Runqueue,
                          cont: Callable[[_Runqueue], None]) -> None:
        """Charge the kernel context-switch cost, then continue."""
        self.context_switches += 1
        if rq.tick_event is not None:
            rq.tick_event.cancel()
            rq.tick_event = None
        if self.ledger.enabled:
            self.ledger.charge("kernel_ctx_switch",
                               self.costs.kernel_ctx_switch_ns,
                               core=rq.core.id, domain="kernel")
        rq.core.run("kernel", self.costs.kernel_ctx_switch_ns, cont, rq)

    # The chunk currently running on a thread: stored at dispatch time.
    def _current_chunk_of(self, thread: KThread) -> Optional[Chunk]:
        return getattr(thread, "_cfs_chunk", None)
