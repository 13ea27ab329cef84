"""Timer lanes against the ``after``-based engine they replace.

A :class:`~repro.sim.engine.TimerLane` keeps fixed-delay timers in
arming order and puts only the earliest live one on the heap.  Seeded
scripts replay on the reference engine (the verbatim allocating copy in
``test_engine_reference``), where every timer is its own ``after``
Event, and on the engine under test, where each fixed delay is one lane.
The scripts mix arming (also from inside timer callbacks), cancels of
the head and of timers behind it, ``post`` markers that tie with timer
deadlines, ``run(until=...)`` windows, and cancel storms that compact
the heap.  The firing order ``(time, seq, label)``, ``events_fired``
and ``pending()`` must be equal at every checkpoint.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro.sim.engine import SimulationError
from repro.sim.engine import Simulator as NewSimulator
from tests.sim.test_engine_reference import Simulator as ReferenceSimulator

#: one lane per delay (the reference arms each with ``after``); their
#: deadlines interleave, and 0 fires within the arming instant
_DELAYS = (40, 120, 0)
_SEEDS = 200
_CHUNKS = 8


class _CountingSimulator(NewSimulator):
    """The engine under test, counting heap compactions."""

    compactions = 0

    def _compact(self) -> None:
        type(self).compactions += 1
        super()._compact()


class _Player:
    """Replays one script; ``lanes`` picks the engine's timer path."""

    def __init__(self, sim, lanes: bool, seed: int) -> None:
        self.sim = sim
        self.lanes = [sim.lane(delay, self._lane_fired(i))
                      for i, delay in enumerate(_DELAYS)] if lanes else None
        # Callback-side decisions draw from a private stream: equal on
        # both sides as long as callbacks run in the same order.
        self.rng = random.Random(seed)
        #: per lane, the live timers in arming order: [id, token]
        self.live: List[List[list]] = [[] for _ in _DELAYS]
        #: timer id -> the seq its arming took
        self.seq: Dict[int, int] = {}
        self.next_id = 0
        self.fired: List[tuple] = []
        self.checkpoints: List[tuple] = []
        self.counts = dict(head_cancels=0, tail_cancels=0, callback_arms=0,
                           fires=0)

    # -- timers -------------------------------------------------------
    def arm(self, lane: int) -> None:
        timer_id = self.next_id
        self.next_id += 1
        if self.lanes is not None:
            token = self.lanes[lane].arm(timer_id)
        else:
            token = self.sim.after(_DELAYS[lane], self._after_fired, lane,
                                   timer_id)
        self.seq[timer_id] = self.sim._seq
        self.live[lane].append([timer_id, token])

    def cancel(self, lane: int, index: int) -> None:
        live = self.live[lane]
        if not live:
            return
        index %= len(live)
        _, token = live.pop(index)
        self.counts["head_cancels" if index == 0 else "tail_cancels"] += 1
        if self.lanes is not None:
            self.lanes[lane].cancel(token)
        else:
            token.cancel()

    def _lane_fired(self, lane: int):
        return lambda timer_id: self._fired(lane, timer_id)

    def _after_fired(self, lane: int, timer_id: int) -> None:
        self._fired(lane, timer_id)

    def _fired(self, lane: int, timer_id: int) -> None:
        live = self.live[lane]
        assert live and live[0][0] == timer_id, (lane, timer_id, live)
        live.pop(0)
        self.counts["fires"] += 1
        self.fired.append((self.sim.now, self.seq[timer_id],
                           f"lane{lane}:{timer_id}"))
        roll = self.rng.random()
        if roll < 0.25:
            self.counts["callback_arms"] += 1
            self.arm(self.rng.randrange(len(_DELAYS)))
        elif roll < 0.35:
            self.cancel(lane, self.rng.randrange(4))
        elif roll < 0.45:
            self.post_marker(f"cb@{self.sim.now}", self.rng.choice(_DELAYS))

    # -- the rest of the engine ---------------------------------------
    def post_marker(self, label: str, delay: int) -> None:
        self.sim.post(delay, self._marker, label)

    def _marker(self, label: str) -> None:
        self.fired.append((self.sim.now, None, label))

    def storm(self, count: int, far: int) -> None:
        """Far-future ``after`` events, all cancelled: dead entries
        outnumber live ones and the heap compacts."""
        for event in [self.sim.after(far + i, self._never, i)
                      for i in range(count)]:
            event.cancel()

    def _never(self, i: int) -> None:
        raise AssertionError(f"cancelled storm event {i} fired")

    def checkpoint(self) -> None:
        sim = self.sim
        self.checkpoints.append((sim.now, sim.events_fired, sim.pending()))


def _script(seed: int, steps: int = 300) -> List[tuple]:
    rng = random.Random(seed)
    ops = []
    for _ in range(steps):
        roll = rng.random()
        gap = rng.randrange(0, 60)
        lane = rng.randrange(len(_DELAYS))
        if roll < 0.35:
            op = ("arm", lane, rng.randrange(1, 4))
        elif roll < 0.50:
            op = ("cancel_head", lane)
        elif roll < 0.65:
            op = ("cancel_any", lane, rng.randrange(1, 8))
        elif roll < 0.72:
            op = ("marker", rng.randrange(0, 200))
        elif roll < 0.78:
            # A marker due with a timer armed at the same instant, posted
            # before or after it: (time, seq) must order the tie.
            op = ("tie", lane, rng.random() < 0.5)
        elif roll < 0.82:
            op = ("storm", rng.randrange(70, 160), rng.randrange(1, 3000))
        elif roll < 0.86:
            # Cancel every live timer of a lane, head first: each head
            # cancel leaves one dead handle entry in the heap.
            op = ("flush", lane)
        else:
            op = ("window", rng.randrange(1, 200))
        ops.append((gap, op))
    return ops


def _replay(sim, lanes: bool, seed: int) -> _Player:
    player = _Player(sim, lanes, seed + 1)
    for gap, op in _script(seed):
        kind = op[0]
        if kind == "window":
            sim.run(until=sim.now + op[1])
            player.checkpoint()
            continue
        sim.run(until=sim.now + gap)
        if kind == "arm":
            for _ in range(op[2]):
                player.arm(op[1])
        elif kind == "cancel_head":
            player.cancel(op[1], 0)
        elif kind == "cancel_any":
            player.cancel(op[1], op[2])
        elif kind == "marker":
            player.post_marker(f"marker@{sim.now}", op[1])
        elif kind == "tie":
            if op[2]:
                player.post_marker(f"tie@{sim.now}", _DELAYS[op[1]])
            player.arm(op[1])
            if not op[2]:
                player.post_marker(f"tie@{sim.now}", _DELAYS[op[1]])
        elif kind == "storm":
            player.storm(op[1], op[2])
        elif kind == "flush":
            while player.live[op[1]]:
                player.cancel(op[1], 0)
        player.checkpoint()
    sim.run()
    player.checkpoint()
    return player


def _ties(fired: List[tuple]) -> int:
    """Adjacent firings at one time where a marker meets a lane timer."""
    return sum(1 for a, b in zip(fired, fired[1:])
               if a[0] == b[0] and (a[1] is None) != (b[1] is None))


@pytest.mark.parametrize("chunk", range(_CHUNKS))
def test_lanes_match_the_after_reference(chunk):
    for seed in range(chunk, _SEEDS, _CHUNKS):
        new = _replay(NewSimulator(), True, seed)
        reference = _replay(ReferenceSimulator(), False, seed)
        assert new.fired == reference.fired, seed
        assert new.checkpoints == reference.checkpoints, seed
        assert new.sim.events_fired == reference.sim.events_fired, seed
        assert new.counts == reference.counts, seed


def test_scripts_exercise_every_path():
    """The replays are not vacuous: over the seeds, heads and timers
    behind them are cancelled, callbacks arm, markers tie with timers,
    windows leave timers pending, and the heap compacts."""
    _CountingSimulator.compactions = 0
    totals = dict(head_cancels=0, tail_cancels=0, callback_arms=0, fires=0)
    ties = pending_at_checkpoint = 0
    for seed in range(0, _SEEDS, 10):
        player = _replay(_CountingSimulator(), True, seed)
        for key in totals:
            totals[key] += player.counts[key]
        ties += _ties(player.fired)
        pending_at_checkpoint += sum(
            1 for *_, pending in player.checkpoints if pending)
    assert totals["head_cancels"] > 250, totals
    assert totals["tail_cancels"] > 60, totals
    assert totals["callback_arms"] > 500, totals
    assert totals["fires"] > 2_000, totals
    assert ties > 200
    assert pending_at_checkpoint > 2_000
    assert _CountingSimulator.compactions > 100


def test_head_cancel_rearms_without_a_new_seq():
    sim = NewSimulator()
    fired = []
    lane = sim.lane(100, fired.append)
    head = lane.arm("a")
    sim.now = 10
    lane.arm("b")
    seq_after_arms = sim._seq
    lane.cancel(head)
    assert sim._seq == seq_after_arms
    assert sim.pending() == 1 and sim._dead == 1
    sim.run()
    assert fired == ["b"] and sim.now == 110 and sim.events_fired == 1


def test_double_cancel_is_a_no_op():
    sim = NewSimulator()
    fired = []
    lane = sim.lane(50, fired.append)
    head, behind, last = lane.arm(1), lane.arm(2), lane.arm(3)
    lane.cancel(behind)
    lane.cancel(behind)
    assert sim.pending() == 2 and lane.waiting == 1
    lane.cancel(head)
    lane.cancel(head)
    assert sim.pending() == 1 and lane.waiting == 0 and sim._dead == 1
    sim.run()
    assert fired == [3] and sim.pending() == 0
    assert last[1] == 0 and last[2] is None


def test_cancel_after_fire_is_a_no_op():
    sim = NewSimulator()
    fired = []
    lane = sim.lane(20, fired.append)
    first = lane.arm("x")
    sim.run(until=20)
    assert fired == ["x"] and sim.pending() == 0
    lane.arm("y")
    lane.cancel(first)
    assert sim.pending() == 1 and sim._dead == 0
    sim.run()
    assert fired == ["x", "y"] and sim.events_fired == 2


def test_cancel_drops_the_arg_at_once():
    sim = NewSimulator()
    lane = sim.lane(10, lambda arg: None)
    lane.arm("head")
    behind = lane.arm(object())
    lane.cancel(behind)
    assert behind[2] is None


def test_callback_arm_queues_behind_the_next_timer():
    sim = NewSimulator()
    fired = []

    def fire(arg):
        fired.append((sim.now, arg))
        if arg == "a":
            lane.arm("c")

    lane = sim.lane(10, fire)
    lane.arm("a")
    lane.arm("b")
    sim.run()
    assert fired == [(10, "a"), (10, "b"), (20, "c")]


def test_negative_delay_is_rejected():
    sim = NewSimulator()
    with pytest.raises(SimulationError):
        sim.lane(-1, print)
