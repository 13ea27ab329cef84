"""Tests for the cost model's calibration invariants."""

import random

import pytest

from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.kernel.kschedule import KernelReallocPipeline
from repro.obs.ledger import OpLedger
from repro.sim.engine import Simulator
from repro.uprocess.loader import ProgramImage
from repro.uprocess.manager import Manager
from repro.uprocess.threads import UThread


@pytest.fixture
def cm():
    return CostModel()


def _switch_draws(costs, count, seed):
    """``(noise, jitter)`` of ``count`` park switches through
    ``UserspaceSwitch.switch``, read from the ``switch_noise`` and
    ``switch_jitter`` rows it charges (the only site that draws them)."""
    ledger = OpLedger(capture_events=True)
    manager = Manager(costs=costs, rng=random.Random(seed), ledger=ledger)
    core = Machine(Simulator(), costs, 1).cores[0]
    domain = manager.create_domain([core])
    threads = [UThread(manager.create_uprocess(domain, ProgramImage(name)))
               for name in ("app-a", "app-b")]
    domain.switcher.install(core, threads[0])
    draws = []
    for i in range(count):
        ledger.events.clear()
        domain.switcher.switch(core, threads[(i + 1) % 2])
        cost = {op: ns for _, _, _, op, ns in ledger.events}
        draws.append((cost["switch_noise"], cost["switch_jitter"]))
    return draws


def test_vessel_park_switch_matches_table1(cm):
    # Table 1: 0.161 us average; the deterministic base is 160 ns.
    assert cm.vessel_park_switch_ns() == 160


def test_vessel_preempt_includes_uintr_path(cm):
    assert cm.vessel_preempt_switch_ns() == (
        cm.vessel_park_switch_ns() + cm.uintr_send_ns
        + cm.uintr_deliver_ns + cm.uiret_ns)


def test_caladan_park_switch_matches_table1(cm):
    one_way = cm.caladan_park_yield_ns + cm.caladan_park_switch_ns
    assert one_way == 2100  # Table 1: 2.103 us average


def test_switch_cost_ordering(cm):
    # The paper's core claim: userspace switch << cooperative kernel
    # switch << preemptive reallocation.
    realloc_ns = KernelReallocPipeline(cm).total_ns()
    assert (cm.vessel_park_switch_ns()
            < cm.caladan_park_yield_ns + cm.caladan_park_switch_ns
            < realloc_ns)
    assert realloc_ns > 30 * cm.vessel_park_switch_ns()


def test_uintr_vs_ipi_ratio(cm):
    # §2.2: "up to 15x lower latencies than IPI-based signals"
    ipi_path = cm.syscall_ns + cm.ipi_deliver_ns + cm.signal_deliver_ns
    uintr_path = cm.uintr_send_ns + cm.uintr_deliver_ns
    assert 10 <= ipi_path / uintr_path <= 25


def test_jitter_bounded(cm):
    for _, j in _switch_draws(cm, 10000, seed=0):
        assert j == 0 or cm.jitter_min_ns <= j <= cm.jitter_max_ns


def test_kernel_jitter_bigger_than_user_jitter(cm):
    assert cm.kernel_jitter_min_ns > cm.jitter_max_ns


def test_jitter_probability_roughly_respected(cm):
    hits = sum(1 for _, j in _switch_draws(cm, 200_000, seed=1) if j > 0)
    assert hits / 200_000 == pytest.approx(cm.jitter_probability, rel=0.3)


def test_copy_with_overrides(cm):
    modified = cm.copy(wrpkru_ns=99)
    assert modified.wrpkru_ns == 99
    assert cm.wrpkru_ns != 99
    assert modified.syscall_ns == cm.syscall_ns


def test_switch_noise_nonnegative(cm):
    for noise, _ in _switch_draws(cm, 1000, seed=2):
        assert noise >= 0
    rng = random.Random(2)
    for _ in range(1000):
        assert cm.caladan_switch_noise_ns(rng) >= 0


def test_wrpkru_in_documented_range(cm):
    # §2.3: 11-260 cycles; at ~2 GHz that is roughly 5-130 ns.
    assert 5 <= cm.wrpkru_ns <= 130
