"""Property-based suites over the core subsystems."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.units import MS
from repro.hardware.machine import Machine
from repro.hardware.membus import MemoryBus
from repro.hardware.mpk import AccessKind
from repro.hardware.timing import CostModel
from repro.kernel.cfs import CfsScheduler, CfsTask, Chunk
from repro.kernel.kprocess import KProcess
from repro.kernel.syscalls import SyscallLayer
from repro.uprocess.loader import ProgramImage
from repro.uprocess.manager import Manager
from repro.uprocess.smas import MAX_UPROCESSES, Smas
from repro.uprocess.threads import UThread


# ----------------------------------------------------------------------
# Engine: random event workloads behave like a sorted reference
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10_000),
                          st.booleans()),
                min_size=1, max_size=120))
def test_engine_fires_live_events_in_order(spec):
    sim = Simulator()
    fired = []
    expected = []
    events = []
    for time, keep in spec:
        event = sim.at(time, lambda t=time: fired.append(t))
        events.append((event, time, keep))
    for event, time, keep in events:
        if keep:
            expected.append(time)
        else:
            event.cancel()
    sim.run()
    assert fired == sorted(expected)


# ----------------------------------------------------------------------
# Memory bus: bytes are conserved under random cancellation
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=10, max_value=10_000),
                          st.floats(min_value=0.5, max_value=30.0),
                          st.integers(min_value=0, max_value=2_000)),
                min_size=1, max_size=25),
       st.floats(min_value=1.0, max_value=50.0))
def test_membus_bytes_conserved(transfers, capacity):
    sim = Simulator()
    bus = MemoryBus(sim, capacity)
    handles = []
    for size, demand, cancel_at in transfers:
        handle = bus.start_transfer("t", size, demand)
        handles.append((handle, size, cancel_at))
    remaining_total = 0.0
    for handle, size, cancel_at in handles:
        if cancel_at > 0:
            if sim.now < cancel_at:
                sim.run(until=cancel_at)
            remaining_total += bus.cancel_transfer(handle)
    sim.run()
    moved = bus.consumed_bytes("t")
    offered = sum(size for size, _, _ in transfers)
    assert moved + remaining_total == pytest.approx(offered, rel=1e-6,
                                                    abs=1.0)


# ----------------------------------------------------------------------
# CFS: time conservation and no lost work under random task mixes
# ----------------------------------------------------------------------
class _CountingTask(CfsTask):
    def __init__(self, chunks):
        self.chunks = list(chunks)
        self.executed = 0

    def next_chunk(self):
        if not self.chunks:
            return None
        duration = self.chunks.pop(0)

        def done(d=duration):
            self.executed += d
        return Chunk(duration, "app", done)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=-10, max_value=10),
                          st.lists(st.integers(min_value=1000,
                                               max_value=500_000),
                                   min_size=1, max_size=5)),
                min_size=1, max_size=6),
       st.integers(min_value=1, max_value=3))
def test_cfs_conserves_time_and_work(task_specs, cores):
    sim = Simulator()
    machine = Machine(sim, CostModel(), cores)
    cfs = CfsScheduler(sim, machine.cores)
    tasks = []
    for nice, chunks in task_specs:
        proc = KProcess("p", nice=nice)
        thread = proc.spawn_thread()
        task = _CountingTask(chunks)
        cfs.register(thread, task)
        cfs.wake(thread)
        tasks.append((task, sum(chunks)))
    sim.run(until=100 * MS)
    total = machine.total_accounting()
    # Conservation: app + kernel + idle == wall time on every core.
    assert sum(total.values()) == 100 * MS * cores
    for task, offered in tasks:
        # Work is never manufactured; finished tasks ran exactly offered.
        assert task.executed <= offered
        if not task.chunks and task.executed == offered:
            pass  # fully drained
    executed = sum(t.executed for t, _ in tasks)
    assert executed <= total.get("app", 0) + 1


# ----------------------------------------------------------------------
# SMAS key algebra: no app PKRU ever reaches another slot or the runtime
# ----------------------------------------------------------------------
def test_pkru_isolation_exhaustive():
    for me in range(1, MAX_UPROCESSES + 1):
        pkru = Smas.app_pkru(me)
        for other in range(1, MAX_UPROCESSES + 1):
            if other == me:
                assert pkru.allows(other, AccessKind.WRITE)
            else:
                assert not pkru.allows(other, AccessKind.READ)
        assert not pkru.allows(14, AccessKind.READ)   # runtime
        assert pkru.allows(15, AccessKind.READ)       # pipe RO
        assert not pkru.allows(15, AccessKind.WRITE)


# ----------------------------------------------------------------------
# Userspace switch: random switch sequences keep PKRU/map consistent
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=5),
                          st.booleans()),
                min_size=1, max_size=60))
def test_switch_sequences_keep_invariants(ops):
    sim = Simulator()
    machine = Machine(sim, CostModel(), 4)
    manager = Manager(syscalls=SyscallLayer(CostModel()))
    domain = manager.create_domain(machine.cores)
    uprocs = [manager.create_uprocess(domain, ProgramImage(f"u{i}"))
              for i in range(3)]
    threads = [UThread(uprocs[i % 3]) for i in range(6)]
    from repro.uprocess.threads import UThreadState
    for core_id, thread_index, preempt in ops:
        core = machine.cores[core_id]
        thread = threads[thread_index]
        if thread.state is UThreadState.RUNNING and \
                thread.core_id not in (None, core.id):
            # Scheduling a running thread on a second core must fault.
            with pytest.raises(RuntimeError):
                domain.switcher.switch(core, thread, preempt=preempt)
            continue
        if domain.smas.pipe.cpuid_to_task.get(core.id) is None:
            domain.switcher.install(core, thread)
        else:
            domain.switcher.switch(core, thread, preempt=preempt)
        # Invariant: the core's PKRU is the mapped task's, always.
        mapped = domain.smas.pipe.cpuid_to_task[core.id]
        assert mapped is thread
        assert core.pkru.value == thread.uproc.pkru().value
        assert thread.core_id == core.id
    # No two cores claim the same thread.
    claimed = [t for t in domain.smas.pipe.cpuid_to_task.values()
               if t is not None]
    on_core = [t for t in claimed if t.core_id is not None]
    assert len({id(t) for t in on_core}) == len(on_core)
