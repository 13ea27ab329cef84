"""Chaos experiment: latency and reallocation throughput under faults.

Two questions the paper's happy-path evaluation never asks:

1. *Graceful degradation* — when the Uintr preemption path misbehaves
   (dropped or delayed notifications), does VESSEL's watchdog keep tail
   latency bounded by falling back to retries and kernel IPIs, and what
   does the degradation cost?  Caladan runs the same sweep as a control:
   its reallocation pipeline never uses Uintr, so injected Uintr faults
   cannot touch it — but its fault-free baseline is already paying the
   kernel-path price on every reallocation.

2. *Containment* — with all four fault classes injected at once (drops,
   a uThread crash, a rogue best-effort thread, a stalled scheduler
   core), does the system reclaim every resource and keep co-located
   uProcesses serving?  The run prints every fault that escaped
   containment; the ``chaos`` row of ``tests/test_claims.py`` fails on
   any.

Every run goes through ``run_colocation``'s harness, so ``chaos`` honours
``--net``, ``--policy``, ``--trace-out``, ``--latency-breakdown`` and
``--trace-requests`` like every other experiment.  The recovery line
reads VESSEL's containment counters, which are always on;
``--op-breakdown`` adds each run's full ``fault:*``/``fallback:*`` rows.

Usage::

    PYTHONPATH=src python -m repro chaos
    PYTHONPATH=src python -m repro chaos --op-breakdown
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.units import MS, US
from repro.faults import FaultPlan
from repro.vessel.scheduler import VesselSystem
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    run_colocation_full,
)

#: Uintr drop probabilities swept in part 1
DROP_RATES = (0.0, 0.02, 0.05)
#: offered load for the latency app (Mops/s)
L_RATE_MOPS = 0.4


def _run(cfg: ExperimentConfig, system_name: str,
         plan: Optional[FaultPlan], label: str):
    """One chaos run through the colocation harness: memcached (plus
    silo at half its rate on VESSEL, the crash victim) next to linpack.
    Under ``--op-breakdown`` ``[chaos] <label>`` is printed first, so the
    harness's per-system table names its fault plan.  Returns
    ``(report, system)``."""
    if cfg.op_breakdown:
        print(f"\n[chaos] {label}")
    l_specs = [("memcached", "memcached", L_RATE_MOPS)]
    if system_name == "vessel":
        l_specs.append(("silo", "silo", L_RATE_MOPS / 2))
    report, system, _ = run_colocation_full(
        system_name, cfg, l_specs, b_specs=("linpack",), fault_plan=plan)
    return report, system


def _fallback_rate(system) -> float:
    """Fraction of preemptions that needed the degraded path (only
    VESSEL's containment has one)."""
    if not isinstance(system, VesselSystem) or system.preemptions <= 0:
        return 0.0
    containment = system.containment
    return ((containment.fallback_retries + containment.fallback_ipis)
            / system.preemptions)


def _realloc_per_ms(system, report) -> float:
    """Core reallocations per simulated millisecond."""
    moves = (getattr(system, "preemptions", 0)
             + getattr(system, "rotations", 0)
             + getattr(system, "reallocations", 0))
    if report.elapsed_ns <= 0:
        return 0.0
    return moves * MS / report.elapsed_ns


def main(cfg: ExperimentConfig) -> Dict:
    # ---- part 1: Uintr fault-rate sweep, VESSEL vs Caladan ------------
    rows = []
    for system_name in ("vessel", "caladan"):
        for drop_p in DROP_RATES:
            plan = None
            if drop_p > 0.0:
                plan = FaultPlan(seed=cfg.seed).drop_uintr(
                    drop_p, at_ns=cfg.warmup_ms * MS)
            report, system = _run(cfg, system_name, plan,
                                  f"{system_name} drop_p={drop_p:.2f}")
            lat = report.latency.get("memcached", {})
            rows.append([
                system_name,
                f"{drop_p:.2f}",
                f"{lat.get('p50_us', float('nan')):.1f}",
                f"{lat.get('p99_us', float('nan')):.1f}",
                report.completed.get("memcached", 0),
                f"{_realloc_per_ms(system, report):.1f}",
                f"{100.0 * _fallback_rate(system):.2f}%",
                sum(report.fault_injected.values()),
            ])
    print("\nUintr fault-rate sweep "
          f"(memcached @ {L_RATE_MOPS} Mops/s + linpack):")
    print(format_table(
        ["system", "drop_p", "p50_us", "p99_us", "completed",
         "realloc/ms", "fallback", "injected"],
        rows))
    print("(Caladan reallocates through kernel signals, so Uintr faults "
          "cannot touch it; VESSEL absorbs them via watchdog fallback.)")

    # ---- part 2: full chaos + containment audit -----------------------
    mid = (cfg.warmup_ms + (cfg.sim_ms - cfg.warmup_ms) // 3) * MS
    plan = (FaultPlan(seed=cfg.seed)
            .drop_uintr(0.05, at_ns=cfg.warmup_ms * MS)
            .delay_uintr(5 * US, probability=0.05,
                         at_ns=cfg.warmup_ms * MS)
            .crash("silo", at_ns=mid)
            .rogue_thread("linpack", at_ns=mid + 50 * US)
            .stall_scheduler(at_ns=mid + 100 * US))
    report, system = _run(cfg, "vessel", plan, "vessel full chaos")
    lat = report.latency.get("memcached", {})
    containment = system.containment
    print("\nFull chaos on VESSEL (drops + crash + rogue + stall):")
    print(f"  injected faults : {report.fault_injected}")
    print(f"  recovery        : Uintr retries "
          f"{containment.fallback_retries}, kernel IPIs "
          f"{containment.fallback_ipis}, scheduler restarts "
          f"{containment.sched_restarts}, crashes contained "
          f"{containment.contained_crashes}, rogue kills "
          f"{containment.rogue_kills}")
    print(f"  memcached p50/p99: {lat.get('p50_us', float('nan')):.1f} / "
          f"{lat.get('p99_us', float('nan')):.1f} us  "
          f"(completed {report.completed.get('memcached', 0)})")
    print(f"  fallback rate   : {100.0 * _fallback_rate(system):.2f}% "
          f"of {system.preemptions} preemptions")
    for issue in report.uncontained:
        print(f"  UNCONTAINED: {issue}")
    print(f"  containment     : {sum(report.fault_injected.values())} "
          f"injected faults, {len(report.uncontained)} uncontained")
    return {"full_chaos": report}
