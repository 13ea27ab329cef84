"""The policy zoo: alternative scheduling policies over the VESSEL
mechanism.

Each policy here is a small subclass of :class:`SchedPolicy` — the
point of the mechanism/policy split is that these are ~100 lines each,
reuse the default placement logic where they don't care, and run
through the exact same Uintr/call-gate/containment machinery (and the
same ledger accounting) as the stock policy.  Compare them with
``python -m repro policies``.

All four are deterministic: ties break toward the earliest element in
iteration order, and any internal bookkeeping is keyed by objects whose
iteration order is insertion order (dicts), never by hash-randomized
sets.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.sched import queues
from repro.sched.policy import (
    Decision, Enqueue, Idle, Place, Preempt, Rotate, Run, SchedPolicy,
    register_policy)


@register_policy
class MlfqPolicy(SchedPolicy):
    """Multi-level feedback queue (the classic Arpaci-Dusseau shape).

    Each server thread carries a level; per-core run queues pop level 0
    first.  A thread that exhausts its slice is demoted one level (and
    its next slice doubles); a thread that drains its app's queue and
    parks is promoted back to the top — so bursty, short-request apps
    stay responsive while backlogged apps sink to long, cheap slices.
    """

    name = "mlfq"

    def __init__(self, levels: int = 3,
                 base_quantum_ns: int = 10_000, **kwargs) -> None:
        super().__init__(**kwargs)
        if levels < 1:
            raise ValueError(f"need at least one MLFQ level, got {levels}")
        self.levels = levels
        self.base_quantum_ns = base_quantum_ns
        self._level: Dict[object, int] = {}

    def make_core_queue(self):
        return queues.MultiLevelQueue(
            self.levels, lambda thread: self._level.get(thread, 0))

    def quantum_ns(self, core_state) -> Optional[int]:
        level = self._level.get(core_state.thread, 0)
        return self.base_quantum_ns << level

    def on_quantum_expiry(self, core_state) -> Optional[Rotate]:
        thread = core_state.thread
        level = self._level.get(thread, 0)
        if level < self.levels - 1:
            self._level[thread] = level + 1
        return Rotate(core_state.core.id)

    def on_thread_park(self, core_state, thread) -> None:
        # Gave up the core voluntarily: back to the interactive level.
        self._level.pop(thread, None)

    def on_app_removed(self, app_state) -> None:
        for thread in app_state.threads:
            self._level.pop(thread, None)


@register_policy
class SjfPolicy(SchedPolicy):
    """Shortest-job-first request picking.

    Placement and rotation stay stock; the only change is which pending
    request a server thread serves next: the one with the smallest
    remaining service time (first-arrived on ties), instead of FCFS.
    Classic trade: mean latency drops, long requests can starve under
    sustained load — the §4.4 long-request preemption caps how badly.
    """

    name = "sjf"

    def pick_request(self, core_state, app):
        queue = app.queue
        if not queue:
            return None
        best_index = 0
        best_service = queue[0].service_ns
        for index in range(1, len(queue)):
            service = queue[index].service_ns
            if service < best_service:
                best_index, best_service = index, service
        if best_index == 0:
            return queue.popleft()
        request = queue[best_index]
        del queue[best_index]
        return request


@register_policy
class TrustGroupPolicy(SchedPolicy):
    """Core-scheduling trust groups (Linux ``prctl(PR_SCHED_CORE)``).

    Every app carries a cookie; two threads may occupy the two SMT
    siblings of a physical core only if their cookies match — the
    cross-hyperthread side-channel mitigation, expressed as a placement
    filter.  Worker cores pair up in order (first+second, ...).  By
    default every app is its own trust group (strictest); pass
    ``groups={app_name: cookie}`` to co-schedule chosen apps.

    A placement that would pair mismatched cookies is simply skipped —
    the core stays idle rather than leak — which is exactly the
    utilization-for-isolation trade core scheduling makes.
    """

    name = "trust-group"

    def __init__(self, groups: Optional[Dict[str, str]] = None,
                 **kwargs) -> None:
        super().__init__(**kwargs)
        self.groups = dict(groups or {})

    def cookie_of(self, thread) -> str:
        name = thread.payload.name
        return self.groups.get(name, name)

    def _sibling_allows(self, core_state, thread) -> bool:
        sibling = self.ctx.sibling_of(core_state.core.id)
        if sibling is None or sibling.thread is None:
            return True
        return self.cookie_of(sibling.thread) == self.cookie_of(thread)

    def place_one(self, app_state) -> Optional[Decision]:
        if not app_state.parked:
            return None
        thread = app_state.parked[0]
        idle = queues.first_where(
            self.ctx.core_states(),
            lambda s: s.kind is None and not s.core.busy
            and self._sibling_allows(s, thread))
        if idle is not None:
            return Place(thread, idle.core.id)
        victim = queues.first_where(
            self.ctx.core_states(),
            lambda s: s.kind == "B" and self._sibling_allows(s, thread))
        if victim is not None:
            return Preempt(victim.core.id, victim.thread, thread)
        # No compatible slot: force-idle one side of a BE/BE pair (the
        # Linux core-scheduling move), which the next placement round
        # turns into a (thread, idle) pair for this group.
        for state in self.ctx.core_states():
            if state.kind != "B":
                continue
            sibling = self.ctx.sibling_of(state.core.id)
            if sibling is not None and sibling.kind == "B":
                return Preempt(state.core.id, state.thread, None)
        target = self.shortest_queue_core(app_state)
        if target is None:
            return None
        return Enqueue(thread, target.core.id)

    def on_core_idle(self, core_state) -> Decision:
        # First *compatible* queued thread, not just the head — an
        # incompatible head waits (possibly forever: forced idle is the
        # price of the isolation guarantee).
        for thread in core_state.fifo:
            if self._sibling_allows(core_state, thread):
                return Run(thread, core_state.core.id)
        be_thread = self.ctx.next_be_thread()
        if be_thread is not None \
                and self._sibling_allows(core_state, be_thread):
            return Run(be_thread, core_state.core.id)
        # Forced idle: nothing trusted to run next to the sibling.
        return Idle(core_state.core.id)


@register_policy
class PriorityPolicy(SchedPolicy):
    """Strict per-app priorities.

    Higher-priority apps are (a) dispatched first on every tick and
    (b) picked first off shared run queues — the mechanism's ``Run``
    decision accepts any queued thread, not just the head, so this is
    purely a policy-side reordering.  Equal priorities fall back to the
    stock FIFO order, keeping the default behaviour as the zero case.
    """

    name = "priority"

    def __init__(self, priorities: Optional[Dict[str, int]] = None,
                 **kwargs) -> None:
        super().__init__(**kwargs)
        self.priorities = dict(priorities or {})

    def priority_of(self, name: str) -> int:
        return self.priorities.get(name, 0)

    def on_tick(self) -> Iterator[Decision]:
        ranked = sorted(
            (a for a in self.ctx.app_states()
             if a.app.is_latency and a.app.queue),
            key=lambda a: -self.priority_of(a.app.name))
        for app_state in ranked:
            yield from self.on_arrival(app_state)
        for core_state in self.ctx.core_states():
            if core_state.kind is None and not core_state.core.busy:
                yield self.on_core_idle(core_state)
            elif core_state.kind == "L":
                decision = self.check_long_request(core_state)
                if decision is not None:
                    yield decision

    def on_core_idle(self, core_state) -> Decision:
        best = None
        best_priority = None
        for thread in core_state.fifo:
            priority = self.priority_of(thread.payload.name)
            if best_priority is None or priority > best_priority:
                best, best_priority = thread, priority
        if best is not None:
            return Run(best, core_state.core.id)
        be_thread = self.ctx.next_be_thread()
        if be_thread is not None:
            return Run(be_thread, core_state.core.id)
        return Idle(core_state.core.id)
