"""Same seed + same plan must reproduce the run bit-for-bit.

This is the property that makes fault injection usable: a failure found
under chaos can be replayed exactly by re-running the plan, and the
ledger export doubles as the regression fingerprint.  The runs go
through the one colocation harness the ``chaos`` experiment uses.
"""

from repro.sim.units import MS
from repro.faults import FaultPlan
from repro.experiments.common import (
    ExperimentConfig,
    run_task_captured,
)
from tests.fingerprint import report_fingerprint


def _plan(seed):
    return (FaultPlan(seed=seed)
            .drop_uintr(0.3, at_ns=2 * MS)
            .delay_uintr(4_000, probability=0.2, at_ns=2 * MS)
            .crash("silo", at_ns=3 * MS)
            .stall_scheduler(at_ns=4 * MS))


def _run(seed=11):
    """``(report, system, stdout)``; stdout holds the ledger export
    (the per-op breakdown table)."""
    cfg = ExperimentConfig(num_workers=4, sim_ms=8, warmup_ms=2, seed=seed,
                           op_breakdown=True)
    report, system, _, stdout = run_task_captured((
        "vessel", cfg, dict(l_specs=[("memcached", "memcached", 0.4),
                                     ("silo", "silo", 0.2)],
                            b_specs=("linpack",), fault_plan=_plan(seed))))
    return report, system, stdout


def test_same_seed_same_plan_is_byte_identical():
    report_a, system_a, stdout_a = _run()
    report_b, system_b, stdout_b = _run()

    # Ledger export: identical down to the byte.
    assert "fault:uintr_drop" in stdout_a
    assert stdout_a == stdout_b
    # The whole report, injection decisions included.
    assert report_fingerprint([report_a]) == report_fingerprint([report_b])
    assert report_a.fault_injected == report_b.fault_injected
    # Latency stats — and the raw sample streams behind them.
    assert report_a.latency == report_b.latency
    for app_a, app_b in zip(system_a.apps, system_b.apps):
        assert app_a.latency.samples == app_b.latency.samples
    # Scheduler and fallback activity.
    assert system_a.preemptions == system_b.preemptions
    containment_a, containment_b = system_a.containment, system_b.containment
    for counter in ("fallback_retries", "fallback_ipis", "sched_restarts",
                    "contained_crashes", "rogue_kills"):
        assert getattr(containment_a, counter) \
            == getattr(containment_b, counter)


def test_different_seed_diverges():
    report_a, _, _ = _run(seed=11)
    report_b, _, _ = _run(seed=12)
    # Sanity check that the property above is not vacuous.
    assert (report_a.fault_injected != report_b.fault_injected
            or report_a.latency != report_b.latency)


def test_report_does_not_depend_on_op_breakdown():
    """The ledger is observability: turning it on changes what a run
    prints, never what it reports."""
    cfg = ExperimentConfig(num_workers=2, sim_ms=4, warmup_ms=1, seed=42)
    kwargs = dict(l_specs=[("memcached", "mc", 0.3)],
                  fault_plan=FaultPlan(seed=42).drop_uintr(0.2))
    plain, _, _, _ = run_task_captured(("vessel", cfg, kwargs))
    ledgered, _, _, stdout = run_task_captured(
        ("vessel", cfg.scaled(op_breakdown=True), kwargs))
    assert "fault:uintr_drop" in stdout
    assert plain.fault_injected["drop_uintr"] > 0
    assert report_fingerprint([plain]) == report_fingerprint([ledgered])
