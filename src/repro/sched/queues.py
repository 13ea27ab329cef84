"""Shared run-queue primitives and core-scan helpers.

Every scheduling system in the repo keeps two kinds of state the policy
layer cares about: *runnable-thread queues* (per-core FIFOs, a global
best-effort queue, MLFQ levels) and *core scans* (find an idle core,
find a preemption victim, find the shortest queue).  This module is the
single home for both, so a new policy composes existing primitives
instead of re-implementing its own deques — and so VESSEL and the
baselines (Caladan, Arachne, Linux CFS) answer "which core?" questions
through the same, identically-ordered helpers.  The exception is a
per-request lookup (Caladan's spinning core, Arachne's idle-held core
and Linux CFS's sleeping server thread in ``on_arrival``): it stays an
inline loop, because a helper that takes a predicate costs one call per
core.

Determinism contract: every helper iterates its input in the order
given (core dicts preserve insertion order) and breaks ties toward the
earliest element, so two runs over the same state pick the same core.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, List, Optional, TypeVar

T = TypeVar("T")


class FifoQueue(deque):
    """A single-level FIFO run queue (the default per-core discipline).

    Subclasses :class:`collections.deque` so the per-op hot calls
    (``append``/``popleft``/``remove``/``__len__``/``__iter__``) stay at
    C speed — the mechanism touches a run queue on every placement and
    every served request.  Interface contract shared with
    :class:`MultiLevelQueue` — mechanism code only uses these methods,
    so a policy can swap the discipline by overriding
    ``SchedPolicy.make_core_queue``:

    * ``append(item)``    — enqueue at the discipline's insert point;
    * ``popleft()``       — dequeue the item ``peek()`` shows;
    * ``peek()``          — next item to run, or ``None``;
    * ``remove(item)``    — drop one item wherever it queues;
    * ``purge(pred)``     — drop every item matching ``pred``;
    * ``__len__/__bool__/__iter__`` — inspection (oldest first).
    """

    __slots__ = ()

    def peek(self):
        return self[0] if self else None

    def purge(self, pred: Callable[[T], bool]) -> int:
        """Remove every queued item matching ``pred``; returns count."""
        kept = [item for item in self if not pred(item)]
        removed = len(self) - len(kept)
        if removed:
            self.clear()
            self.extend(kept)
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FifoQueue {list(self)!r}>"


class MultiLevelQueue:
    """A fixed number of FIFO levels; level 0 pops first (MLFQ shape).

    ``level_of`` maps an item to its current level at *enqueue* time
    (an MLFQ policy keeps that map and demotes/promotes between
    enqueues).  Items past the last level clamp into it.  The interface
    matches :class:`FifoQueue`, so the mechanism layer is oblivious to
    which discipline a policy installed.
    """

    __slots__ = ("_levels", "level_of")

    def __init__(self, levels: int, level_of: Callable[[T], int]) -> None:
        if levels < 1:
            raise ValueError(f"need at least one level, got {levels}")
        self._levels: List[deque] = [deque() for _ in range(levels)]
        self.level_of = level_of

    def append(self, item) -> None:
        level = min(max(0, self.level_of(item)), len(self._levels) - 1)
        self._levels[level].append(item)

    def popleft(self):
        for level in self._levels:
            if level:
                return level.popleft()
        raise IndexError("pop from an empty MultiLevelQueue")

    def peek(self):
        for level in self._levels:
            if level:
                return level[0]
        return None

    def remove(self, item) -> None:
        for level in self._levels:
            if item in level:
                level.remove(item)
                return
        raise ValueError(f"{item!r} not queued")

    def purge(self, pred: Callable[[T], bool]) -> int:
        removed = 0
        for i, level in enumerate(self._levels):
            kept = [item for item in level if not pred(item)]
            removed += len(level) - len(kept)
            self._levels[i] = deque(kept)
        return removed

    def __len__(self) -> int:
        return sum(len(level) for level in self._levels)

    def __bool__(self) -> bool:
        return any(self._levels)

    def __iter__(self):
        for level in self._levels:
            yield from level

    def __contains__(self, item) -> bool:
        return any(item in level for level in self._levels)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MultiLevelQueue {[list(lv) for lv in self._levels]!r}>"


# ----------------------------------------------------------------------
# Core scans.  ``states`` is any iterable of per-core state objects with
# at least ``.core`` (hardware core) and ``.kind`` attributes — the
# shape VESSEL and every baseline already use.
# ----------------------------------------------------------------------
def first_where(states: Iterable[T], pred: Callable[[T], bool]) -> Optional[T]:
    """First core state matching ``pred`` in iteration order."""
    for state in states:
        if pred(state):
            return state
    return None


def first_idle(states: Iterable[T]) -> Optional[T]:
    """First core with no assignment and no in-flight work."""
    for state in states:
        if state.kind is None and not state.core.busy:
            return state
    return None


def first_of_kind(states: Iterable[T], kind: str) -> Optional[T]:
    """First core currently assigned the given kind (e.g. ``"B"``)."""
    for state in states:
        if state.kind == kind:
            return state
    return None


def shortest_queue(states: Iterable[T],
                   eligible: Callable[[T], bool]) -> Optional[T]:
    """Eligible core with the fewest queued threads (first on ties)."""
    best = None
    best_depth = None
    for state in states:
        if not eligible(state):
            continue
        depth = len(state.fifo)
        if best_depth is None or depth < best_depth:
            best, best_depth = state, depth
    return best
