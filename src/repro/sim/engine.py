"""The discrete-event engine.

A :class:`Simulator` owns an integer nanosecond clock and a binary heap
of scheduled callbacks.  Events are cancellable: schedulers in this
codebase constantly schedule "completion" events for running work and
cancel them when the work is preempted, so cancellation must be O(1)
(we mark the handle dead and skip it when popped, the standard
lazy-deletion approach).  When cancelled-but-unpopped entries outnumber
live ones the heap is compacted in place, so a simulator reused across
many ``run(until=...)`` windows cannot accumulate dead entries without
bound (they previously could, parked past ``until`` forever).

Determinism: two events scheduled for the same timestamp fire in the
order they were scheduled (a monotone sequence number breaks ties), so
a simulation with a fixed RNG seed replays identically.

Performance: this module is the hottest code in the repository — every
modeled request, switch, and timer passes through here, and experiment
sweeps retire hundreds of millions of events.  Five choices keep the
inner loop fast; ``benchmarks/e2e`` measures them as its ``sim`` layer
(see ``benchmarks/e2e/README.md``):

* heap entries are ``(time, seq, event)`` tuples, not :class:`Event`
  objects — the heap's comparisons stay in C tuple code (``seq`` is
  unique, so the event object itself is never compared);
* :meth:`Simulator.run` is the one dispatch loop: it peeks, pops and
  fires inline, with locals bound outside the loop;
* :meth:`Simulator.post` is a fire-and-forget fast path that skips
  :class:`Event` allocation entirely for the majority of schedules that
  are never cancelled (its heap entry is ``(time, seq, None, fn,
  args)``; mixed-width entries still compare correctly because ``(time,
  seq)`` always decides);
* an owner with at most one pending callback (a core's segment
  completion, the scheduler scan, a per-core watchdog) keeps one
  :class:`Event` and re-arms it with :meth:`Simulator.rearm` instead of
  allocating a handle per schedule.  An entry ``(time, seq, event)`` is
  live iff ``event.seq == seq``: firing or cancelling zeroes the
  handle's ``seq`` and re-arming gives it a fresh one, so an entry a
  cancelled arming left in the heap stays dead;
* an owner with many pending timers of one fixed delay that are usually
  cancelled (a client's retransmission timeouts) arms them on a
  :class:`TimerLane` (:meth:`Simulator.lane`).  Their deadlines never
  decrease, so the lane keeps them in arming order and the heap holds
  one handle at the earliest live timer; cancelling any other timer
  touches no heap entry.  Each timer still takes its ``seq`` where
  :meth:`Simulator.after` would, so firing order is unchanged.

Nothing counts live events separately: :meth:`Simulator.pending` is the
heap's length less its dead entries plus the lanes' timers that wait
behind their armed head.

:class:`RunComponent` lives here, beside the engine, so every opt-in run
layer can implement it without an import cycle.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional

#: compact the heap when dead entries exceed this count *and* the live
#: ones (amortized O(1) per cancel; bounds heap size at 2x live + 64)
_COMPACT_THRESHOLD = 64


class SimulationError(RuntimeError):
    """Raised for invalid uses of the engine (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback, and a handle that can be re-armed.

    Instances are returned by :meth:`Simulator.at` / :meth:`Simulator.after`
    (armed) or :meth:`Simulator.handle` (unarmed) and can be cancelled
    with :meth:`cancel`.  The callback fires at ``time`` with the
    positional arguments given when the handle was made.  ``seq`` is the
    tie-breaking sequence number of the pending arming, or 0 when nothing
    is pending (fired, cancelled or never armed).
    """

    __slots__ = ("time", "seq", "fn", "args", "_owner")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple,
                 owner: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self._owner = owner

    @property
    def alive(self) -> bool:
        """Whether the event is still pending (not fired, not cancelled)."""
        return self.seq != 0

    def cancel(self) -> None:
        """Cancel the event; cancelling a dead event is a no-op."""
        if not self.seq:
            return
        self.seq = 0
        owner = self._owner
        if owner is not None:
            owner._dead = dead = owner._dead + 1
            # Dead entries outnumber live ones: 2 * dead > dead + live.
            if dead > _COMPACT_THRESHOLD and 2 * dead > len(owner._heap):
                owner._compact()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending" if self.seq else "dead"
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
        #: cancelled entries still in the heap
        self._dead: int = 0
        self._lanes: List[TimerLane] = []
        self._running = False
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
        return event

    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq = seq = self._seq + 1
        time = self.now + int(delay)
        event = Event(time, seq, fn, args, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def handle(self, fn: Callable[..., Any], *args: Any) -> Event:
        """An unarmed handle for ``fn(*args)``, to be armed by :meth:`rearm`."""
        return Event(0, 0, fn, args, self)

    def rearm(self, event: Event, delay: int) -> None:
        """Arm the dead handle ``event`` to fire ``delay`` ns from now.

        The handle gets a fresh ``seq`` here, exactly where :meth:`after`
        would take one, so firing order matches a new :class:`Event`.
        Re-arming a pending handle is an error: an owner has at most one
        pending callback per handle (cancel it first).
        """
        if event.seq:
            raise SimulationError(f"re-arming pending {event!r}")
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq = seq = self._seq + 1
        event.time = time = self.now + int(delay)
        event.seq = seq
        heapq.heappush(self._heap, (time, seq, event))

    def lane(self, delay: int, fn: Callable[[Any], Any]) -> "TimerLane":
        """A :class:`TimerLane` whose timers call ``fn(arg)`` ``delay`` ns
        after they are armed."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        lane = TimerLane(self, int(delay), fn)
        self._lanes.append(lane)
        return lane

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

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> None:
        """Run until the heap drains or ``until`` is reached.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so time-weighted statistics
        close their final interval consistently.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        # The loop binds everything it can outside and dispatches on the
        # entry directly; self._heap is only ever mutated in place (see
        # _compact), so the local binding stays valid across callbacks.
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap:
                entry = heap[0]
                event = entry[2]
                if event is None:                  # post() fast path
                    if until is not None and entry[0] > until:
                        break
                    pop(heap)
                    self.now = entry[0]
                    self.events_fired += 1
                    entry[3](*entry[4])
                elif event.seq == entry[1]:
                    if until is not None and entry[0] > until:
                        break
                    pop(heap)
                    self.now = entry[0]
                    event.seq = 0
                    self.events_fired += 1
                    event.fn(*event.args)
                else:              # cancelled (or since re-armed) entry
                    pop(heap)
                    self._dead -= 1
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until

    def pending(self) -> int:
        """Number of live events still scheduled.

        The heap's live entries (its length less the counted dead ones)
        plus the lane timers queued behind their lane's armed head: O(1)
        per lane instead of a walk over the heap.
        """
        return (len(self._heap) - self._dead
                + sum(lane.waiting for lane in self._lanes))

    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Rebuild the heap without dead entries, in place.

        In-place (slice assignment, not rebinding) because :meth:`run`
        holds a local reference to the list across callbacks — a cancel
        storm inside an event handler must not strand the running loop
        on a stale heap.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap
                   if entry[2] is None or entry[2].seq == entry[1]]
        heapq.heapify(heap)
        self._dead = 0


class TimerLane:
    """Timers that all fire one fixed delay after they are armed.

    Made by :meth:`Simulator.lane`.  With one delay, deadlines never
    decrease in arming order, so the lane keeps its timers as
    ``[time, seq, arg]`` lists in a deque and the heap holds a single
    handle, armed at the earliest live timer's ``(time, seq)``.
    :meth:`arm` takes ``seq`` where :meth:`Simulator.after` would, and
    each timer fires as that ``after`` Event would have: same time, same
    tie-break, one ``events_fired`` each.

    A timer's ``seq`` is zeroed once it fires or is cancelled, and its
    ``arg`` dropped.  Cancelling a timer behind the head only marks it;
    cancelling the head cancels the handle and re-arms it at the next
    live timer's reserved ``(time, seq)``, without taking a new ``seq``.
    """

    __slots__ = ("_sim", "_delay", "_fn", "_timers", "_handle", "waiting")

    def __init__(self, sim: Simulator, delay: int,
                 fn: Callable[[Any], Any]) -> None:
        self._sim = sim
        self._delay = delay
        self._fn = fn
        #: ``[time, seq, arg]`` per timer in arming order; the head is
        #: live whenever the deque is not empty
        self._timers: Deque[list] = deque()
        self._handle = Event(0, 0, self._fire, (), sim)
        #: live timers behind the armed head (not on the heap)
        self.waiting = 0

    def arm(self, arg: Any) -> list:
        """Fire ``fn(arg)`` one delay from now; returns the cancel token."""
        sim = self._sim
        sim._seq = seq = sim._seq + 1
        timer = [sim.now + self._delay, seq, arg]
        self._timers.append(timer)
        handle = self._handle
        if handle.seq:
            self.waiting += 1
        else:
            handle.time = time = timer[0]
            handle.seq = seq
            heapq.heappush(sim._heap, (time, seq, handle))
        return timer

    def cancel(self, timer: list) -> None:
        """Cancel ``timer``; a fired or cancelled timer is a no-op."""
        seq = timer[1]
        if not seq:
            return
        timer[1] = 0
        timer[2] = None
        if seq != self._handle.seq:
            self.waiting -= 1
            return
        self._handle.cancel()
        self._arm_next()

    def _arm_next(self) -> None:
        """Drop the spent head and arm the handle at the next live timer."""
        timers = self._timers
        timers.popleft()
        while timers:
            time, seq, _ = timers[0]
            if seq:
                handle = self._handle
                handle.time = time
                handle.seq = seq
                heapq.heappush(self._sim._heap, (time, seq, handle))
                self.waiting -= 1
                return
            timers.popleft()

    def _fire(self) -> None:
        # The next timer is armed first, so one that fn arms queues
        # behind it.
        timer = self._timers[0]
        arg = timer[2]
        timer[1] = 0
        timer[2] = None
        self._arm_next()
        self._fn(arg)


class RunComponent:
    """One opt-in layer of a simulated run (fabric, admission, faults...).

    :func:`repro.experiments.common.run_colocation` builds its layers
    into one ordered list, then calls :meth:`start` on each, schedules
    each :meth:`begin_measurement` at the end of warm-up, and lets each
    :meth:`contribute` its results to the run's ``SystemReport``.  All
    three do nothing by default; a layer overrides what it needs.
    """

    def start(self) -> None:
        """Begin acting on the simulation (after the system started)."""

    def begin_measurement(self) -> None:
        """Drop warm-up statistics at the start of the measured window."""

    def contribute(self, report) -> None:
        """Copy this layer's results into ``report`` after the run."""
