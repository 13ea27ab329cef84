"""Tests for the CFS model: weights, fairness, wakeup behaviour."""

import pytest

from repro.sim.units import MS
from repro.hardware.machine import Machine
from repro.kernel.cfs import (
    CfsParams,
    CfsScheduler,
    CfsTask,
    Chunk,
    nice_to_weight,
    NICE_0_WEIGHT,
)
from repro.kernel.kprocess import KProcess, ThreadState


class BatchTask(CfsTask):
    """Always-runnable compute task accumulating executed time."""

    def __init__(self, chunk_ns=100_000):
        self.chunk_ns = chunk_ns
        self.executed = 0

    def next_chunk(self):
        def done():
            self.executed += self.chunk_ns
        return Chunk(self.chunk_ns, "app", done)


class FiniteTask(CfsTask):
    """Runs a fixed list of chunk durations, then sleeps."""

    def __init__(self, durations):
        self.durations = list(durations)
        self.completed = []

    def next_chunk(self):
        if not self.durations:
            return None
        duration = self.durations.pop(0)
        return Chunk(duration, "app", lambda: self.completed.append(duration))


def make_cfs(sim, costs, num_cores=1):
    machine = Machine(sim, costs, num_cores)
    return machine, CfsScheduler(sim, machine.cores, costs)


# ----------------------------------------------------------------------
# weight table
# ----------------------------------------------------------------------
def test_nice0_weight():
    assert nice_to_weight(0) == NICE_0_WEIGHT == 1024


def test_weight_table_monotone_decreasing():
    weights = [nice_to_weight(n) for n in range(-20, 20)]
    assert weights == sorted(weights, reverse=True)


def test_known_kernel_values():
    assert nice_to_weight(-20) == 88761
    assert nice_to_weight(19) == 15
    assert nice_to_weight(-19) == 71755


def test_weight_out_of_range():
    with pytest.raises(ValueError):
        nice_to_weight(20)


# ----------------------------------------------------------------------
# scheduling behaviour
# ----------------------------------------------------------------------
def test_single_task_runs(sim, costs):
    machine, cfs = make_cfs(sim, costs)
    proc = KProcess("p")
    thread = proc.spawn_thread()
    task = FiniteTask([1000, 2000])
    cfs.register(thread, task)
    cfs.wake(thread)
    sim.run(until=10 * MS)
    assert task.completed == [1000, 2000]
    assert thread.state is ThreadState.SLEEPING


def test_equal_nice_fair_share(sim, costs):
    machine, cfs = make_cfs(sim, costs)
    tasks = []
    for name in ("a", "b"):
        proc = KProcess(name, nice=0)
        thread = proc.spawn_thread()
        task = BatchTask()
        cfs.register(thread, task)
        cfs.wake(thread)
        tasks.append(task)
    sim.run(until=400 * MS)
    ratio = tasks[0].executed / max(1, tasks[1].executed)
    assert 0.8 <= ratio <= 1.25


def test_weighted_share_tracks_weights(sim, costs):
    machine, cfs = make_cfs(sim, costs)
    executed = {}
    for name, nice in (("fast", 0), ("slow", 5)):
        proc = KProcess(name, nice=nice)
        thread = proc.spawn_thread()
        task = BatchTask()
        cfs.register(thread, task)
        cfs.wake(thread)
        executed[name] = task
    sim.run(until=400 * MS)
    ratio = executed["fast"].executed / max(1, executed["slow"].executed)
    expected = nice_to_weight(0) / nice_to_weight(5)
    assert ratio == pytest.approx(expected, rel=0.25)


def test_wake_is_idempotent_for_runnable(sim, costs):
    machine, cfs = make_cfs(sim, costs)
    proc = KProcess("p")
    thread = proc.spawn_thread()
    cfs.register(thread, BatchTask())
    cfs.wake(thread)
    cfs.wake(thread)  # no-op
    sim.run(until=1 * MS)
    assert sum(rq.nr_running for rq in cfs._rqs.values()) == 1


def test_waking_dead_thread_rejected(sim, costs):
    machine, cfs = make_cfs(sim, costs)
    proc = KProcess("p")
    thread = proc.spawn_thread()
    cfs.register(thread, BatchTask())
    proc.kill()
    with pytest.raises(RuntimeError):
        cfs.wake(thread)


def test_sleeping_thread_wakes_on_demand(sim, costs):
    machine, cfs = make_cfs(sim, costs)
    proc = KProcess("p")
    thread = proc.spawn_thread()
    task = FiniteTask([1000])
    cfs.register(thread, task)
    cfs.wake(thread)
    sim.run(until=1 * MS)
    assert thread.state is ThreadState.SLEEPING
    task.durations.append(500)
    cfs.wake(thread)
    sim.run(until=2 * MS)
    assert task.completed == [1000, 500]


def test_threads_spread_across_idle_cores(sim, costs):
    machine, cfs = make_cfs(sim, costs, num_cores=2)
    tasks = []
    for i in range(2):
        proc = KProcess(f"p{i}")
        thread = proc.spawn_thread()
        task = BatchTask()
        cfs.register(thread, task)
        cfs.wake(thread)
        tasks.append(task)
    sim.run(until=50 * MS)
    # With two cores both tasks should run at full speed.
    for task in tasks:
        assert task.executed >= 40 * MS


def test_high_priority_wakeup_preempts_low_after_min_granularity(sim, costs):
    machine, cfs = make_cfs(sim, costs)
    batch_proc = KProcess("batch", nice=19)
    batch_thread = batch_proc.spawn_thread()
    cfs.register(batch_thread, BatchTask(chunk_ns=50 * MS))
    cfs.wake(batch_thread)

    hp_proc = KProcess("hp", nice=-19)
    hp_thread = hp_proc.spawn_thread()
    hp_task = FiniteTask([1000])
    cfs.register(hp_thread, hp_task)

    sim.run(until=10 * MS)  # batch is mid-chunk, past min_granularity
    cfs.wake(hp_thread)
    sim.run(until=12 * MS)
    assert hp_task.completed == [1000]
    assert cfs.wakeup_preemptions >= 1


def test_wakeup_preemption_blocked_within_min_granularity(sim, costs):
    params = CfsParams()
    machine = Machine(sim, costs, 1)
    cfs = CfsScheduler(sim, machine.cores, costs, params)
    batch_proc = KProcess("batch", nice=19)
    batch_thread = batch_proc.spawn_thread()
    cfs.register(batch_thread, BatchTask(chunk_ns=50 * MS))
    cfs.wake(batch_thread)

    hp_proc = KProcess("hp", nice=-19)
    hp_thread = hp_proc.spawn_thread()
    hp_task = FiniteTask([1000])
    cfs.register(hp_thread, hp_task)

    # Wake almost immediately: curr is protected for min_granularity.
    sim.run(until=100_000)  # 0.1 ms << 3 ms min granularity
    cfs.wake(hp_thread)
    sim.run(until=200_000)
    assert hp_task.completed == []  # still waiting


def test_context_switches_cost_kernel_time(sim, costs):
    machine, cfs = make_cfs(sim, costs)
    for name in ("a", "b"):
        proc = KProcess(name)
        thread = proc.spawn_thread()
        cfs.register(thread, BatchTask())
        cfs.wake(thread)
    sim.run(until=100 * MS)
    machine.cores[0].settle()
    assert machine.cores[0].acct.buckets.get("kernel", 0) > 0
    assert cfs.context_switches > 0
