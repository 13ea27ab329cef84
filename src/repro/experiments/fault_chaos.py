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
   uProcesses serving?  The run fails loudly (non-zero exit) if any
   fault escapes containment, which makes it usable as a CI smoke gate.

Usage::

    PYTHONPATH=src python -m repro chaos
    PYTHONPATH=src python -m repro chaos --op-breakdown
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS, US
from repro.hardware.machine import Machine
from repro.obs.ledger import OpLedger
from repro.faults import FaultInjector, FaultPlan
from repro.vessel.scheduler import VesselSystem
from repro.workloads.base import OpenLoopSource
from repro.workloads.linpack import linpack_app
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    make_l_app,
    system_factory,
)

#: Uintr drop probabilities swept in part 1
DROP_RATES = (0.0, 0.02, 0.05)
#: offered load for the latency app (Mops/s)
L_RATE_MOPS = 0.4


def run_chaos(cfg: ExperimentConfig, system_name: str,
              plan: Optional[FaultPlan] = None) -> Tuple:
    """One chaos run; returns (report, system, injector, ledger).

    Unlike ``run_colocation`` this always builds a real ledger — the
    fallback rate it reports comes from the ``fallback`` domain rows.
    """
    sim = Simulator()
    ledger = OpLedger(sim=sim)
    machine = Machine(sim, cfg.costs, cfg.num_workers + 1,
                      membus_gbps=cfg.membus_gbps, ledger=ledger)
    rngs = RngStreams(cfg.seed)
    workers = machine.cores[1:]
    system = system_factory(system_name)(sim, machine, rngs,
                                        worker_cores=workers)

    app, sampler = make_l_app("memcached", "memcached", rngs)
    system.add_app(app)
    OpenLoopSource(sim, app, system.submit, L_RATE_MOPS, sampler,
                   rngs.stream("arrivals/memcached"),
                   connections=cfg.connections_per_app)
    if system_name == "vessel":
        silo, silo_sampler = make_l_app("silo", "silo", rngs)
        system.add_app(silo)
        OpenLoopSource(sim, silo, system.submit, L_RATE_MOPS / 2,
                       silo_sampler, rngs.stream("arrivals/silo"),
                       connections=cfg.connections_per_app)
    system.add_app(linpack_app())

    system.start()
    injector = None
    if plan is not None:
        injector = FaultInjector(plan, system)
        injector.start()
    sim.at(cfg.warmup_ms * MS, system.begin_measurement)
    sim.run(until=cfg.sim_ms * MS)
    return system.report(), system, injector, ledger


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


def main(cfg: ExperimentConfig) -> None:
    # ---- part 1: Uintr fault-rate sweep, VESSEL vs Caladan ------------
    rows = []
    for system_name in ("vessel", "caladan"):
        for drop_p in DROP_RATES:
            plan = None
            if drop_p > 0.0:
                plan = FaultPlan(seed=cfg.seed).drop_uintr(
                    drop_p, at_ns=cfg.warmup_ms * MS)
            report, system, injector, ledger = run_chaos(
                cfg, system_name, plan=plan)
            lat = report.latency.get("memcached", {})
            rows.append([
                system_name,
                f"{drop_p:.2f}",
                f"{lat.get('p50_us', float('nan')):.1f}",
                f"{lat.get('p99_us', float('nan')):.1f}",
                report.completed.get("memcached", 0),
                f"{_realloc_per_ms(system, report):.1f}",
                f"{100.0 * _fallback_rate(system):.2f}%",
                injector.total_injected if injector else 0,
            ])
            if cfg.op_breakdown:
                print(f"\n[{system_name} drop={drop_p}] per-op breakdown")
                print(ledger.breakdown_table())
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
    report, system, injector, ledger = run_chaos(cfg, "vessel", plan=plan)
    lat = report.latency.get("memcached", {})
    print("\nFull chaos on VESSEL (drops + crash + rogue + stall):")
    injected = {k.value: v for k, v in injector.injected.items() if v}
    print(f"  injected faults : {injected}")
    print(f"  fault ops       : {report.fault_ops}")
    print(f"  fallback ops    : {report.fallback_ops}")
    print(f"  memcached p50/p99: {lat.get('p50_us', float('nan')):.1f} / "
          f"{lat.get('p99_us', float('nan')):.1f} us  "
          f"(completed {report.completed.get('memcached', 0)})")
    print(f"  fallback rate   : {100.0 * _fallback_rate(system):.2f}% "
          f"of {system.preemptions} preemptions")
    if cfg.op_breakdown:
        print("\n[vessel full-chaos] per-op breakdown")
        print(ledger.breakdown_table())
    issues = system.uncontained()
    if issues:
        for issue in issues:
            print(f"  UNCONTAINED: {issue}")
        raise RuntimeError(
            f"{len(issues)} fault(s) escaped containment")
    print(f"  containment     : all {injector.total_injected} injected "
          "faults contained, zero leaks")
