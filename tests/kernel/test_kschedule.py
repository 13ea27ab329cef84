"""Tests for the Figure 3 kernel reallocation pipeline."""

import random

import pytest

from repro.hardware.machine import Machine
from repro.kernel.kschedule import KernelReallocPipeline


def test_pipeline_total_is_5_3_us(costs):
    assert KernelReallocPipeline(costs).total_ns() == 5300


def test_pipeline_occupies_core_for_total(sim, costs):
    machine = Machine(sim, costs, 1)
    pipeline = KernelReallocPipeline(costs)
    done = []
    pipeline.run(machine.cores[0], lambda: done.append(sim.now))
    sim.run()
    assert done == [5300]


def test_pipeline_accounting_split(sim, costs):
    machine = Machine(sim, costs, 1)
    core = machine.cores[0]
    pipeline = KernelReallocPipeline(costs)
    pipeline.run(core, lambda: None)
    sim.run()
    core.settle()
    # One phase (userspace save) is runtime; the rest kernel.
    assert core.buckets["runtime"] == costs.caladan_user_save_ns
    assert core.buckets["kernel"] == 5300 - costs.caladan_user_save_ns


def test_phase_order_matches_figure3(costs):
    names = [p.name for p in KernelReallocPipeline(costs).phases()]
    assert names == [
        "scheduler ioctl",
        "IPI delivery",
        "kernel trap + SIGUSR",
        "userspace state save",
        "kernel context switch",
        "restore to new app",
    ]


def test_jitter_extends_last_phase_only_sometimes(sim, costs):
    rng = random.Random(0)
    machine = Machine(sim, costs, 1)
    pipeline = KernelReallocPipeline(costs)
    durations = []

    def once():
        start = sim.now
        pipeline.run(machine.cores[0], lambda: durations.append(
            sim.now - start), rng=rng)

    for _ in range(300):
        once()
        sim.run()
    # Most runs take the plain 5300 ns, a few a jittered last phase.
    assert min(durations) == 5300
    assert max(durations) > 5300
    assert pipeline.executions == 300


def test_busy_core_rejected(sim, costs):
    machine = Machine(sim, costs, 1)
    machine.cores[0].run("app", 1000)
    pipeline = KernelReallocPipeline(costs)
    with pytest.raises(Exception):
        pipeline.run(machine.cores[0], lambda: None)
