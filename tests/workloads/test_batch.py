"""Tests for the batch workloads: linpack, membench, objcopy."""

import random

import pytest

from repro.hardware.cache import CacheSim
from repro.hardware.machine import Machine
from repro.hardware.membus import MemoryBus
from repro.workloads.linpack import linpack_app
from repro.workloads.membench import membench_app
from repro.workloads.objcopy import ObjCopyApp


# ----------------------------------------------------------------------
# Linpack
# ----------------------------------------------------------------------
def test_linpack_chunk_accrues_on_completion(sim, costs):
    machine = Machine(sim, costs, 1)
    app = linpack_app(chunk_ns=50_000)
    app.batch_work.start(machine.cores[0])
    sim.run()
    assert app.useful_ns == 50_000


def test_linpack_preempt_credits_partial(sim, costs):
    machine = Machine(sim, costs, 1)
    app = linpack_app(chunk_ns=100_000)
    run = app.batch_work.start(machine.cores[0])
    sim.run(until=30_000)
    run.preempt()
    assert app.useful_ns == 30_000
    assert not machine.cores[0].busy


def test_linpack_preempt_twice_safe(sim, costs):
    machine = Machine(sim, costs, 1)
    app = linpack_app()
    run = app.batch_work.start(machine.cores[0])
    sim.run(until=10)
    run.preempt()
    run.preempt()
    assert app.useful_ns == 10


def test_batch_start_passes_callback_arguments(sim, costs):
    """``start(core, on_done, *args)`` calls ``on_done(*args)`` when the
    chunk or iteration completes, and never after a preemption."""
    machine = Machine(sim, costs, 2, membus_gbps=40.0)
    linpack = linpack_app(chunk_ns=50_000)
    membench = membench_app(machine.membus, phase_bytes=120_000,
                            demand_gbps=12.0, compute_ns=5_000)
    done = []

    def record(label, index):
        done.append((label, index, sim.now))

    linpack.batch_work.start(machine.cores[0], record, "linpack", 1)
    membench.batch_work.start(machine.cores[1], record, "membench", 2)
    sim.run()
    assert [entry[:2] for entry in done] == [("membench", 2),
                                             ("linpack", 1)]
    assert done[1][2] == 50_000
    preempted = linpack.batch_work.start(machine.cores[0], record, "x", 3)
    sim.run(until=sim.now + 10)
    preempted.preempt()
    sim.run()
    assert len(done) == 2


def test_linpack_invalid_chunk():
    with pytest.raises(ValueError):
        linpack_app(chunk_ns=0)


# ----------------------------------------------------------------------
# membench
# ----------------------------------------------------------------------
def test_membench_iteration_completes(sim, costs):
    machine = Machine(sim, costs, 1, membus_gbps=40.0)
    app = membench_app(machine.membus, phase_bytes=120_000,
                       demand_gbps=12.0, compute_ns=5_000)
    done = []
    app.batch_work.start(machine.cores[0], on_done=lambda: done.append(
        sim.now))
    sim.run()
    # memory: 120000/12 = 10 us; compute 5 us
    assert done[0] == pytest.approx(15_000, rel=0.02)
    assert app.useful_ns == pytest.approx(15_000, rel=0.02)
    assert app.batch_work.iterations == 1


def test_membench_core_busy_during_stall(sim, costs):
    machine = Machine(sim, costs, 1, membus_gbps=40.0)
    app = membench_app(machine.membus)
    app.batch_work.start(machine.cores[0])
    sim.run(until=5_000)
    assert machine.cores[0].busy
    machine.cores[0].settle()
    assert machine.cores[0].acct.buckets["app:membench"] == 5_000


def test_membench_preempt_resume_conserves_work(sim, costs):
    machine = Machine(sim, costs, 1, membus_gbps=40.0)
    app = membench_app(machine.membus, phase_bytes=120_000,
                       demand_gbps=12.0, compute_ns=5_000)
    work = app.batch_work
    run = work.start(machine.cores[0])
    sim.run(until=4_000)
    run.preempt()
    credited_partial = app.useful_ns
    assert credited_partial == pytest.approx(4_000, rel=0.1)
    # Resume: the remainder completes; total equals one full iteration.
    done = []
    work.start(machine.cores[0], on_done=lambda: done.append(sim.now))
    sim.run()
    assert done
    # One iteration: the memory phase at the demand rate, then compute.
    assert app.useful_ns == pytest.approx(120_000 / 12.0 + 5_000, rel=0.02)


def test_membench_preempt_during_compute(sim, costs):
    machine = Machine(sim, costs, 1, membus_gbps=40.0)
    app = membench_app(machine.membus, phase_bytes=12_000,
                       demand_gbps=12.0, compute_ns=20_000)
    run = app.batch_work.start(machine.cores[0])
    sim.run(until=6_000)  # 1 us memory + 5 us into compute
    run.preempt()
    assert app.useful_ns == pytest.approx(6_000, rel=0.05)
    assert len(app.batch_work._interrupted) == 1


def test_membench_solo_gbps():
    sim_ = __import__("repro.sim.engine", fromlist=["Simulator"]).Simulator()
    bus = MemoryBus(sim_, 40.0)
    app = membench_app(bus, phase_bytes=120_000, demand_gbps=12.0,
                       compute_ns=10_000)
    # memory 10 us at 12 GB/s, compute 10 us -> average 6 GB/s
    assert app.batch_work.solo_gbps() == pytest.approx(6.0)


def test_membench_throttled_by_bus_cap(sim, costs):
    machine = Machine(sim, costs, 1, membus_gbps=40.0)
    machine.membus.set_tag_cap("membench", 6.0)
    app = membench_app(machine.membus, phase_bytes=120_000,
                       demand_gbps=12.0, compute_ns=0)
    done = []
    app.batch_work.start(machine.cores[0], on_done=lambda: done.append(
        sim.now))
    sim.run()
    assert done[0] == pytest.approx(20_000, rel=0.02)  # half rate -> 2x time


def test_membench_invalid_params(sim, costs):
    machine = Machine(sim, costs, 1)
    with pytest.raises(ValueError):
        membench_app(machine.membus, phase_bytes=0)


# ----------------------------------------------------------------------
# objcopy
# ----------------------------------------------------------------------
def test_objcopy_op_costs_scale_with_misses():
    cache = CacheSim(64 * 1024, ways=8, line_bytes=64)
    app = ObjCopyApp("a", ws_base=0, ws_size=32 * 1024, object_bytes=1024)
    rng = random.Random(0)
    first_cost, first_misses = app.run_op(cache, rng)
    assert first_misses > 0
    assert first_cost == app.cpu_per_op_ns + first_misses * \
        app.miss_penalty_ns
    # after warming, ops get cheaper
    for _ in range(200):
        app.run_op(cache, rng)
    warm_cost, warm_misses = app.run_op(cache, rng)
    assert warm_cost <= first_cost


def test_objcopy_tracks_totals():
    cache = CacheSim(64 * 1024, ways=8, line_bytes=64)
    app = ObjCopyApp("a", 0, 16 * 1024)
    rng = random.Random(1)
    for _ in range(10):
        app.run_op(cache, rng)
    assert app.ops == 10
    assert app.total_ns >= 10 * app.cpu_per_op_ns
    assert app.mean_op_ns() >= app.cpu_per_op_ns


def test_objcopy_ws_validation():
    with pytest.raises(ValueError):
        ObjCopyApp("a", 0, 1024, object_bytes=1024)
