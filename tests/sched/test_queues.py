"""Unit tests for the shared scheduler queue/scan primitives."""

from repro.sched.queues import (
    FifoQueue, MultiLevelQueue, first_idle, first_of_kind, first_where,
    shortest_queue)


class FakeCore:
    def __init__(self, busy=False):
        self.busy = busy


class FakeCoreState:
    def __init__(self, kind=None, busy=False, depth=0):
        self.kind = kind
        self.core = FakeCore(busy)
        self.fifo = FifoQueue()
        for i in range(depth):
            self.fifo.append(f"t{i}")


# ----------------------------------------------------------------------
# FifoQueue
# ----------------------------------------------------------------------
def test_fifo_order_and_peek():
    q = FifoQueue()
    assert not q
    assert q.peek() is None
    q.append("a")
    q.append("b")
    assert q.peek() == "a"
    assert list(q) == ["a", "b"]
    assert q.popleft() == "a"
    assert len(q) == 1
    assert "b" in q


def test_fifo_remove_and_purge():
    q = FifoQueue()
    for item in ("a", "b", "c", "b"):
        q.append(item)
    q.remove("b")
    assert list(q) == ["a", "c", "b"]  # removes the first occurrence
    q.purge(lambda item: item == "b")
    assert list(q) == ["a", "c"]


# ----------------------------------------------------------------------
# MultiLevelQueue
# ----------------------------------------------------------------------
def test_mlq_pops_lowest_level_first():
    levels = {"hot": 0, "warm": 1, "cold": 2}
    q = MultiLevelQueue(3, levels.get)
    for item in ("cold", "hot", "warm"):
        q.append(item)
    assert q.peek() == "hot"
    assert [q.popleft() for _ in range(3)] == ["hot", "warm", "cold"]


def test_mlq_fifo_within_level_and_iteration_order():
    order = {"a": 1, "b": 1, "c": 0}
    q = MultiLevelQueue(2, order.get)
    for item in ("a", "b", "c"):
        q.append(item)
    assert list(q) == ["c", "a", "b"]
    assert len(q) == 3
    assert "b" in q
    q.remove("a")
    assert list(q) == ["c", "b"]


def test_mlq_clamps_out_of_range_levels():
    q = MultiLevelQueue(2, lambda item: 99)
    q.append("x")
    assert q.popleft() == "x"


def test_mlq_purge():
    q = MultiLevelQueue(2, lambda item: 0 if item.startswith("a") else 1)
    for item in ("a1", "b1", "a2"):
        q.append(item)
    q.purge(lambda item: item.startswith("a"))
    assert list(q) == ["b1"]


# ----------------------------------------------------------------------
# Core scans: all first-match, deterministic in iteration order
# ----------------------------------------------------------------------
def test_first_where_and_first_idle():
    busy = FakeCoreState(kind="L", busy=True)
    idle = FakeCoreState()
    assert first_where([busy, idle], lambda s: not s.core.busy) is idle
    assert first_idle([busy, idle]) is idle
    assert first_idle([busy]) is None
    # kind must be None: a core whose thread parked mid-switch is not
    # idle for placement purposes.
    holding = FakeCoreState(kind="B", busy=False)
    assert first_idle([holding]) is None


def test_first_of_kind():
    b1 = FakeCoreState(kind="B")
    b2 = FakeCoreState(kind="B")
    assert first_of_kind([FakeCoreState(kind="L"), b1, b2], "B") is b1


def test_shortest_queue_tie_break_first():
    a = FakeCoreState(kind="L", depth=2)
    b = FakeCoreState(kind="L", depth=1)
    c = FakeCoreState(kind="L", depth=1)
    def is_l(state):
        return state.kind == "L"

    assert shortest_queue([a, b, c], is_l) is b  # first of the ties
    assert shortest_queue([], is_l) is None
    assert shortest_queue([a], lambda s: False) is None
