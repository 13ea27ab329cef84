"""The re-armable engine and Core against verbatim copies of the
allocating versions they replaced.

``Event`` and ``Simulator`` (engine) and ``Core`` (hardware) below are
copied unchanged from the commit before completion, scan and watchdog
handles became re-armable: every schedule allocated a fresh
:class:`Event`, and an entry was live while ``event._alive``.  Seeded
random scripts mixing segment runs, preemptions, wedges, timer arming,
cancels, re-arms and cancel storms that trigger ``_compact`` replay on
both; the firing order ``(time, seq, callback)``, ``events_fired``,
``pending()``, heap length, accounting buckets and tracer spans must be
equal throughout.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, List, Optional

import pytest

from repro.hardware.machine import Core as NewCore
from repro.hardware.machine import CoreMode
from repro.hardware.mpk import PkruRegister
from repro.sim.engine import SimulationError
from repro.sim.engine import Simulator as NewSimulator
from repro.sim.stats import BusyAccounter
from repro.sim.trace import Tracer

_COMPACT_THRESHOLD = 64


# ----------------------------------------------------------------------
# Reference: the allocating engine and Core, verbatim
# ----------------------------------------------------------------------
class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.at` / :meth:`Simulator.after`
    and can be cancelled with :meth:`cancel`.  The callback fires at
    ``time`` with the positional arguments given at scheduling time.
    """

    __slots__ = ("time", "seq", "fn", "args", "_alive", "_owner")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple,
                 owner: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self._alive = True
        self._owner = owner

    @property
    def alive(self) -> bool:
        """Whether the event is still pending (not fired, not cancelled)."""
        return self._alive

    def cancel(self) -> None:
        """Cancel the event; cancelling a dead event is a no-op."""
        if not self._alive:
            return
        self._alive = False
        owner = self._owner
        if owner is not None:
            owner._live -= 1
            owner._dead += 1
            if owner._dead > _COMPACT_THRESHOLD and owner._dead > owner._live:
                owner._compact()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending" if self._alive else "dead"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time} {name} {state}>"


class Simulator:
    """Event loop with an integer nanosecond clock.

    Typical use::

        sim = Simulator()
        sim.after(1_000, handler, arg)
        sim.run(until=1_000_000)
    """

    def __init__(self) -> None:
        self.now: int = 0
        #: heap of (time, seq, Event) / (time, seq, None, fn, args) entries
        self._heap: List[tuple] = []
        self._seq: int = 0
        self._live: int = 0
        self._dead: int = 0
        self._running = False
        self._stopped = False
        self.events_fired: int = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        self._seq = seq = self._seq + 1
        time = int(time)
        event = Event(time, seq, fn, args, self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq = seq = self._seq + 1
        time = self.now + int(delay)
        event = Event(time, seq, fn, args, self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current time (after pending events)."""
        return self.after(0, fn, *args)

    def post(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`after`: no :class:`Event` handle.

        The fast path for the most common scheduling pattern — arrival
        ticks, interrupt deliveries, dispatch reactions — where the
        caller never cancels.  Ordering is identical to :meth:`after`
        (same clock, same tie-breaking sequence), only the cancellable
        handle (and its allocation) is gone.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap,
                       (self.now + int(delay), seq, None, fn, args))
        self._live += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek(self) -> Optional[int]:
        """Timestamp of the next live event, or None if the heap is empty."""
        self._drop_dead()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> bool:
        """Fire the next live event.  Returns False if none remain."""
        self._drop_dead()
        if not self._heap:
            return False
        entry = heapq.heappop(self._heap)
        self.now = entry[0]
        event = entry[2]
        if event is None:
            fn, args = entry[3], entry[4]
        else:
            event._alive = False
            fn, args = event.fn, event.args
        self._live -= 1
        self.events_fired += 1
        fn(*args)
        return True

    def run(self, until: Optional[int] = None) -> None:
        """Run until the heap drains, ``until`` is reached, or :meth:`stop`.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so time-weighted statistics
        close their final interval consistently.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        # The loop binds everything it can outside and dispatches on the
        # entry directly; self._heap is only ever mutated in place (see
        # _compact), so the local binding stays valid across callbacks.
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap and not self._stopped:
                entry = heap[0]
                event = entry[2]
                if event is None:                  # post() fast path
                    if until is not None and entry[0] > until:
                        break
                    pop(heap)
                    self.now = entry[0]
                    self._live -= 1
                    self.events_fired += 1
                    entry[3](*entry[4])
                elif event._alive:
                    if until is not None and entry[0] > until:
                        break
                    pop(heap)
                    self.now = entry[0]
                    event._alive = False
                    self._live -= 1
                    self.events_fired += 1
                    event.fn(*event.args)
                else:                              # lazily-deleted entry
                    pop(heap)
                    self._dead -= 1
        finally:
            self._running = False
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    def stop(self) -> None:
        """Stop :meth:`run` after the current event finishes."""
        self._stopped = True

    def pending(self) -> int:
        """Number of live events still scheduled.

        Tracked incrementally (push / fire / cancel), so this is O(1)
        instead of a walk over the heap's lazily-deleted dead entries.
        """
        return self._live

    # ------------------------------------------------------------------
    def _drop_dead(self) -> None:
        heap = self._heap
        while heap:
            event = heap[0][2]
            if event is None or event._alive:
                return
            heapq.heappop(heap)
            self._dead -= 1

    def _compact(self) -> None:
        """Rebuild the heap without dead entries, in place.

        In-place (slice assignment, not rebinding) because :meth:`run`
        holds a local reference to the list across callbacks — a cancel
        storm inside an event handler must not strand the running loop
        on a stale heap.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap
                   if entry[2] is None or entry[2]._alive]
        heapq.heapify(heap)
        self._dead = 0


class Core:
    """One hardware thread."""

    def __init__(self, sim: Simulator, core_id: int) -> None:
        self.sim = sim
        self.id = core_id
        self.pkru = PkruRegister(PkruRegister.ALL_DENIED_EXCEPT_0)
        self.mode = CoreMode.IDLE
        self.acct = BusyAccounter()
        self._category = "idle"
        self._since = sim.now
        self._segment_event: Optional[Event] = None
        self._segment_end = 0
        self._on_done: Optional[Callable[[], None]] = None
        #: opaque scheduler-owned state (current thread, app, ...)
        self.context: Any = None
        #: optional execution tracer (repro.sim.trace.Tracer)
        self.tracer = None
        #: True once the core is lost to an uncontained fault
        self.wedged = False

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _switch_category(self, category: str) -> None:
        # Fires on every segment start/stop of every core; the bucket
        # update is inlined (acct.charge's negative check is redundant
        # here because ``elapsed > 0`` already guards it).
        now = self.sim.now
        elapsed = now - self._since
        if elapsed > 0:
            buckets = self.acct.buckets
            previous = self._category
            buckets[previous] = buckets.get(previous, 0) + elapsed
            if self.tracer is not None:
                self.tracer.record(self.id, self._since, now, previous)
        self._category = category
        self._since = now

    def settle(self) -> None:
        """Flush accrued time in the current category into the accounter."""
        self._switch_category(self._category)

    @property
    def category(self) -> str:
        return self._category

    # ------------------------------------------------------------------
    # Segment execution
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._segment_event is not None

    def run(self, category: str, duration_ns: int,
            on_done: Optional[Callable[[], None]] = None) -> None:
        """Execute ``duration_ns`` of work attributed to ``category``.

        ``on_done`` fires when the segment completes (not if preempted).
        Starting a segment while one is in flight is a scheduler bug.
        """
        if self.wedged:
            raise SimulationError(f"core {self.id} is wedged")
        if self._segment_event is not None:
            raise SimulationError(f"core {self.id} is already busy")
        if duration_ns < 0:
            raise SimulationError(f"negative duration {duration_ns}")
        now = self.sim.now
        if now == self._since:
            # Nothing accrued since the last switch (a completion that
            # starts the next segment at once): _switch_category would
            # record nothing, so only the category changes.
            self._category = category
        else:
            self._switch_category(category)
        self._on_done = on_done
        self._segment_end = now + duration_ns
        self._segment_event = self.sim.after(duration_ns, self._complete)

    def preempt(self) -> int:
        """Cancel the in-flight segment; returns remaining nanoseconds."""
        if self._segment_event is None:
            raise SimulationError(f"core {self.id} has no segment to preempt")
        self._segment_event.cancel()
        self._segment_event = None
        self._on_done = None
        remaining = self._segment_end - self.sim.now
        self._switch_category("idle")
        return max(0, remaining)

    def set_idle(self) -> None:
        """Mark the core idle (UMWAIT); it must not have a running segment."""
        if self._segment_event is not None:
            raise SimulationError(f"core {self.id} is busy; preempt() first")
        self._switch_category("idle")
        self.mode = CoreMode.IDLE

    def wedge(self) -> None:
        """Lose the core to an uncontained fault.

        Any in-flight segment is abandoned, all further time accrues to
        the "wedged" category, and :meth:`run` refuses new segments.
        Used by fault-injection ablations to make the cost of *missing*
        containment visible in the accounting buckets.
        """
        if self._segment_event is not None:
            self._segment_event.cancel()
            self._segment_event = None
            self._on_done = None
        self.wedged = True
        self._switch_category("wedged")
        self.mode = CoreMode.KERNEL

    def _complete(self) -> None:
        self._segment_event = None
        self._switch_category("idle")
        callback, self._on_done = self._on_done, None
        if callback is not None:
            callback()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Core {self.id} {self._category} mode={self.mode.value}>"


# ----------------------------------------------------------------------
# The script player
# ----------------------------------------------------------------------
_CATEGORIES = ("app:a", "app:b", "runtime", "kernel")
_CORES = 3
_TIMERS = 4


class _Player:
    """Replays one seeded script on an engine + Core pair.

    A timer owner arms at most one callback at a time: on the new engine
    it re-arms one handle, on the reference it allocates an Event per
    arming (the replaced pattern).  A core's completion callback gets its
    arguments through ``Core.run``'s ``*args`` on the new side and a
    closure on the reference side.
    """

    def __init__(self, sim_cls, core_cls, rearmable: bool, seed: int):
        self.sim = sim_cls()
        self.rearmable = rearmable
        self.tracer = Tracer(self.sim)
        self.cores = [core_cls(self.sim, i) for i in range(_CORES)]
        for core in self.cores:
            core.tracer = self.tracer
        # Callback-side decisions draw from a private stream: equal on
        # both sides as long as the callbacks run in the same order.
        self.rng = random.Random(seed)
        self.fired: List[tuple] = []
        self.timers = [self._make_timer(t) for t in range(_TIMERS)]
        #: the seq each timer's pending arming took (None when unarmed)
        self.timer_seq: List[Optional[int]] = [None] * _TIMERS
        self.segment_seq: List[Optional[int]] = [None] * _CORES
        self.checkpoints: List[tuple] = []

    # -- timers -------------------------------------------------------
    def _make_timer(self, t: int):
        if self.rearmable:
            return self.sim.handle(self._timer_fired, t)
        return None

    def _timer_alive(self, t: int) -> bool:
        event = self.timers[t]
        return event is not None and event.alive

    def arm(self, t: int, delay: int) -> None:
        if self.rearmable:
            self.sim.rearm(self.timers[t], delay)
        else:
            self.timers[t] = self.sim.after(delay, self._timer_fired, t)
        self.timer_seq[t] = self.timers[t].seq

    def cancel(self, t: int) -> None:
        if self.timers[t] is not None:
            self.timers[t].cancel()
        self.timer_seq[t] = None

    def _timer_fired(self, t: int) -> None:
        self.fired.append((self.sim.now, self.timer_seq[t], f"timer{t}"))
        self.timer_seq[t] = None
        roll = self.rng.random()
        if roll < 0.3:
            # The _scan pattern: re-arm from inside the own callback.
            self.arm(t, self.rng.randrange(0, 400))
        elif roll < 0.4:
            # Cancelling the handle that is firing is a no-op.
            self.cancel(t)
        elif roll < 0.5:
            # Re-arm, then change its mind within the same callback.
            self.arm(t, self.rng.randrange(1, 400))
            self.cancel(t)

    # -- cores ----------------------------------------------------------
    def run(self, c: int, category: str, duration: int) -> None:
        core = self.cores[c]
        if core.wedged or core.busy:
            return
        if self.rearmable:
            core.run(category, duration, self._segment_done, c, duration)
        else:
            core.run(category, duration,
                     lambda: self._segment_done(c, duration))
        self.segment_seq[c] = self.sim._seq

    def _segment_done(self, c: int, duration: int) -> None:
        self.fired.append((self.sim.now, self.segment_seq[c],
                           f"core{c}:{duration}"))
        if self.rng.random() < 0.5:
            # Back-to-back segment (the Core.run fast path).
            self.run(c, self.rng.choice(_CATEGORIES),
                     self.rng.randrange(0, 300))

    def preempt(self, c: int) -> None:
        core = self.cores[c]
        if core.busy:
            self.fired.append((self.sim.now, None,
                               f"preempt{c}:{core.preempt()}"))

    def wedge(self, c: int) -> None:
        if not self.cores[c].wedged:
            self.cores[c].wedge()

    # -- storms -----------------------------------------------------------
    def storm(self, count: int, far: int) -> None:
        """Schedule ``count`` far-future events and cancel them all: the
        dead entries outnumber the live ones and ``_compact`` runs."""
        doomed = [self.sim.after(far + i, self._never, i)
                  for i in range(count)]
        for event in doomed:
            event.cancel()

    def _never(self, i: int) -> None:
        raise AssertionError(f"cancelled storm event {i} fired")

    def post_marker(self, label: str, delay: int) -> None:
        self.sim.post(delay, self._marker, label)

    def _marker(self, label: str) -> None:
        self.fired.append((self.sim.now, None, label))

    def checkpoint(self) -> None:
        sim = self.sim
        self.checkpoints.append((sim.now, sim.events_fired, sim.pending(),
                                 len(sim._heap), sim._dead, sim._seq))

    def result(self):
        for core in self.cores:
            core.settle()
        return (self.fired, self.checkpoints,
                [dict(core.acct.buckets) for core in self.cores],
                dict(self.tracer.spans), self.sim.events_fired)


def _script(seed: int, steps: int = 400) -> List[tuple]:
    """A seeded op list; each op runs between run(until=...) windows."""
    rng = random.Random(seed)
    ops = []
    for _ in range(steps):
        roll = rng.random()
        gap = rng.randrange(0, 120)
        if roll < 0.30:
            op = ("run", rng.randrange(_CORES), rng.choice(_CATEGORIES),
                  rng.randrange(0, 500))
        elif roll < 0.45:
            op = ("preempt", rng.randrange(_CORES))
        elif roll < 0.455:
            op = ("wedge", rng.randrange(_CORES))
        elif roll < 0.65:
            op = ("arm", rng.randrange(_TIMERS), rng.randrange(0, 600))
        elif roll < 0.75:
            op = ("rearm", rng.randrange(_TIMERS), rng.randrange(0, 600))
        elif roll < 0.85:
            op = ("cancel", rng.randrange(_TIMERS))
        elif roll < 0.89:
            op = ("storm", rng.randrange(70, 200), rng.randrange(1, 5000))
        elif roll < 0.95:
            op = ("marker", rng.randrange(0, 50))
        else:
            op = ("window", rng.randrange(1, 400))
        ops.append((gap, op))
    return ops


def _replay(sim_cls, core_cls, rearmable: bool, seed: int):
    player = _Player(sim_cls, core_cls, rearmable, seed + 1)
    sim = player.sim
    for gap, op in _script(seed):
        kind = op[0]
        if kind == "window":
            # Stop short of some pending events: run(until=...) must
            # leave the same entries (live and dead) behind.
            sim.run(until=sim.now + op[1])
            player.checkpoint()
            continue
        sim.run(until=sim.now + gap)
        if kind == "run":
            player.run(*op[1:])
        elif kind == "preempt":
            player.preempt(op[1])
        elif kind == "wedge":
            player.wedge(op[1])
        elif kind == "arm":
            if not player._timer_alive(op[1]):
                player.arm(op[1], op[2])
        elif kind == "rearm":
            player.cancel(op[1])
            player.arm(op[1], op[2])
        elif kind == "cancel":
            player.cancel(op[1])
        elif kind == "storm":
            player.storm(op[1], op[2])
        elif kind == "marker":
            player.post_marker(f"marker@{sim.now}", op[1])
        player.checkpoint()
    sim.run()
    player.checkpoint()
    return player.result()


@pytest.mark.parametrize("seed", range(12))
def test_rearmable_engine_and_core_match_the_allocating_reference(seed):
    new = _replay(NewSimulator, NewCore, True, seed)
    reference = _replay(Simulator, Core, False, seed)
    assert new == reference


def test_scripts_exercise_every_path():
    """The replays are not vacuous: timers fire and re-arm, segments
    complete and are preempted, a core wedges, and storms compact."""
    fired, checkpoints, buckets, spans, events = _replay(
        NewSimulator, NewCore, True, 3)
    labels = [label for _, _, label in fired]
    assert any(label.startswith("timer") for label in labels)
    assert any(label.startswith("core") for label in labels)
    assert any(label.startswith("preempt") for label in labels)
    assert any("wedged" in b for b in buckets)
    assert events > 150
    # Every storm cancels at least 70 entries, yet the dead count never
    # passes the threshold: _compact ran.
    assert max(dead for *_, dead, _ in checkpoints) <= _COMPACT_THRESHOLD
    assert spans
