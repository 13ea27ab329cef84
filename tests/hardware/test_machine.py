"""Tests for cores: segment execution, preemption, accounting."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.trace import Tracer
from repro.hardware.machine import Core, CoreMode, Machine


def test_run_completes_and_calls_back(sim):
    core = Core(sim, 0)
    done = []
    core.run("app", 1000, lambda: done.append(sim.now))
    sim.run()
    assert done == [1000]


def test_accounting_charges_category(sim):
    core = Core(sim, 0)
    core.run("app:x", 500)
    sim.run()
    core.settle()
    assert core.acct.buckets["app:x"] == 500


def test_idle_time_accounted(sim):
    core = Core(sim, 0)
    sim.after(300, lambda: core.run("app", 200))
    sim.run()
    core.settle()
    assert core.acct.buckets["idle"] == 300
    assert core.acct.buckets["app"] == 200


def test_preempt_returns_remaining(sim):
    core = Core(sim, 0)
    core.run("app", 1000)
    sim.run(until=400)
    remaining = core.preempt()
    assert remaining == 600
    core.settle()
    assert core.acct.buckets["app"] == 400


def test_preempt_cancels_completion_callback(sim):
    core = Core(sim, 0)
    done = []
    core.run("app", 1000, lambda: done.append("x"))
    sim.run(until=100)
    core.preempt()
    sim.run()
    assert done == []


def test_double_run_is_an_error(sim):
    core = Core(sim, 0)
    core.run("app", 100)
    with pytest.raises(SimulationError):
        core.run("app", 100)


def test_preempt_idle_core_is_an_error(sim):
    core = Core(sim, 0)
    with pytest.raises(SimulationError):
        core.preempt()


def test_negative_duration_rejected(sim):
    core = Core(sim, 0)
    with pytest.raises(SimulationError):
        core.run("app", -5)


def test_zero_duration_segment(sim):
    core = Core(sim, 0)
    done = []
    core.run("app", 0, lambda: done.append(sim.now))
    sim.run()
    assert done == [0]


def test_set_idle_requires_no_segment(sim):
    core = Core(sim, 0)
    core.run("app", 100)
    with pytest.raises(SimulationError):
        core.set_idle()


def test_busy_flag(sim):
    core = Core(sim, 0)
    assert not core.busy
    core.run("app", 10)
    assert core.busy
    sim.run()
    assert not core.busy


def test_chained_segments_account_fully(sim):
    core = Core(sim, 0)

    def chain(n):
        if n > 0:
            core.run("app", 100, lambda: chain(n - 1))

    chain(5)
    sim.run()
    core.settle()
    assert core.acct.buckets["app"] == 500


class _SwitchEveryRunCore(Core):
    """Reference core: every ``run`` goes through ``_switch_category``.

    After the explicit switch nothing has accrued, so ``Core.run`` only
    sets the category it already holds and arms the segment."""

    def run(self, category, duration_ns, on_done=None, *args):
        self._switch_category(category)
        super().run(category, duration_ns, on_done, *args)


def _drive(core_cls):
    """Back-to-back segments (the fast path), gaps between some
    (idle time accrues), a zero-length segment and a preemption."""
    sim = Simulator()
    tracer = Tracer(sim)
    core = core_cls(sim, 3)
    core.tracer = tracer
    script = [("app:a", 100, 0), ("app:a", 250, 0), ("runtime", 0, 0),
              ("kernel", 40, 30), ("app:b", 500, 0), ("idle", 10, 0),
              ("app:a", 70, 5), ("runtime", 200, 0)]

    def step(i):
        if i == len(script):
            return
        category, duration, gap = script[i]
        if gap:
            sim.after(gap, lambda: core.run(category, duration,
                                            lambda: step(i + 1)))
        else:
            core.run(category, duration, lambda: step(i + 1))

    step(0)
    sim.after(1100, core.preempt)
    sim.after(1200, lambda: core.run("app:b", 300))
    sim.run()
    core.settle()
    return core.acct.buckets, dict(tracer.spans), sim.events_fired


def test_back_to_back_runs_account_like_explicit_switches():
    buckets, spans, events = _drive(Core)
    assert (buckets, spans, events) == _drive(_SwitchEveryRunCore)
    assert sum(buckets.values()) == 1500
    assert buckets["app:a"] == 100 + 250 + 70


def test_machine_has_controllers(sim, costs):
    machine = Machine(sim, costs, 3)
    assert machine.num_cores == 3
    assert machine.uintr is not None
    assert machine.ipi is not None
    assert machine.membus is not None


def test_machine_rejects_zero_cores(sim, costs):
    with pytest.raises(ValueError):
        Machine(sim, costs, 0)


def test_total_accounting_aggregates(sim, costs):
    machine = Machine(sim, costs, 2)
    machine.cores[0].run("app", 100)
    machine.cores[1].run("kernel", 50)
    sim.run()
    total = machine.total_accounting()
    assert total.buckets["app"] == 100
    assert total.buckets["kernel"] == 50


def test_core_pkru_starts_locked_down(sim):
    core = Core(sim, 0)
    from repro.hardware.mpk import AccessKind
    assert core.pkru.allows(0, AccessKind.WRITE)
    assert not core.pkru.allows(1, AccessKind.READ)
    assert core.mode is CoreMode.IDLE
