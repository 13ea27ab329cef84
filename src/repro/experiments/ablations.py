"""Ablations: which part of VESSEL buys what, and how cheap a switch it
needs (DESIGN.md §7).

The paper's design couples a *mechanism* (userspace switches via MPK +
Uintr) with a *policy* (one-level global scheduling).  Because every
nanosecond flows through one :class:`CostModel`, we can cross both axes:

* ``vessel``                — full system (mechanism + policy);
* ``vessel-no-uintr``       — one-level policy, but preemption goes
  through kernel IPIs + signals (MPK alone, no Uintr);
* ``vessel-kernel-switch``  — one-level policy over kernel-priced
  switches (policy alone, no uProcess mechanism);
* ``caladan``               — two-level policy over kernel switches;
* ``caladan-fast-switch``   — two-level policy over uProcess-priced
  switches (mechanism alone, conservative policy kept).

The switch-cost sweep scales every component of the userspace switch
path by a multiplier (1x = the real 0.16 µs, the ``vessel`` row, up to
~48x ≈ Caladan's cooperative switch) and reads two crossovers against
the ``caladan`` row:

* efficiency: the load-weighted scheduling waste overtakes Caladan's
  once the switch costs a few microseconds — the one-level policy
  switches ~10x more often, so it must be ~10x cheaper to break even;
* latency: VESSEL's P999 stays below Caladan's much longer, because even
  an expensive direct switch beats the 10 µs allocation tick.

Also quantifies the §4.2 call-gate defense cost (stack switch + PKRU
recheck) on the park-switch path, and sweeps the scheduler's two
quantum knobs (BE rotation quantum, §4.4 long-request preemption
threshold) now that they are policy parameters rather than module
constants — ``vessel-q5us`` / ``vessel-q80us`` bracket the stock 20 µs.
Every run is independent, so the whole study fans out under ``--jobs``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hardware.timing import CostModel
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    l_capacity_mops,
    run_colocation_batch,
)
from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS

LOAD = 0.5


def _no_uintr_costs(base: CostModel) -> CostModel:
    """Preemption falls back to kernel IPI + signal delivery."""
    return base.copy(
        uintr_send_ns=base.syscall_ns,          # trap to request the IPI
        uintr_deliver_ns=base.ipi_deliver_ns + base.signal_deliver_ns,
        uiret_ns=base.syscall_ns,               # sigreturn
    )


def _kernel_switch_costs(base: CostModel) -> CostModel:
    """Every 'userspace' switch priced like a kernel context switch."""
    return base.copy(
        uctx_save_ns=300,
        uctx_restore_ns=300,
        callgate_enter_ns=base.syscall_ns,
        callgate_exit_ns=base.syscall_ns,
        runtime_queue_ns=base.kernel_ctx_switch_ns,
    )


def _fast_caladan_costs(base: CostModel) -> CostModel:
    """Caladan's transitions priced like uProcess switches."""
    park = base.vessel_park_switch_ns()
    preempt = base.vessel_preempt_switch_ns()
    return base.copy(
        caladan_park_yield_ns=max(1, park // 4),
        caladan_park_switch_ns=park - max(1, park // 4),
        caladan_ioctl_ns=preempt // 6, caladan_ipi_ns=preempt // 6,
        caladan_trap_sigusr_ns=preempt // 6,
        caladan_user_save_ns=preempt // 6,
        caladan_kernel_switch_ns=preempt // 6,
        caladan_restore_ns=preempt - 5 * (preempt // 6),
    )


def scaled_switch_costs(base: CostModel, multiplier: float) -> CostModel:
    """Scale every component of the userspace switch path."""
    return base.copy(
        uctx_save_ns=int(base.uctx_save_ns * multiplier),
        uctx_restore_ns=int(base.uctx_restore_ns * multiplier),
        callgate_enter_ns=int(base.callgate_enter_ns * multiplier),
        callgate_exit_ns=int(base.callgate_exit_ns * multiplier),
        runtime_queue_ns=int(base.runtime_queue_ns * multiplier),
        uintr_send_ns=int(base.uintr_send_ns * multiplier),
        uintr_deliver_ns=int(base.uintr_deliver_ns * multiplier),
        uiret_ns=int(base.uiret_ns * multiplier),
    )


VARIANTS = {
    "vessel": ("vessel", lambda c: c),
    "vessel-no-uintr": ("vessel", _no_uintr_costs),
    "vessel-kernel-switch": ("vessel", _kernel_switch_costs),
    "caladan": ("caladan", lambda c: c),
    "caladan-fast-switch": ("caladan", _fast_caladan_costs),
}

#: rotation/long-request quantum sweep (µs); the stock value is 20
QUANTUM_SWEEP_US = (5, 20, 80)
#: userspace switch-path cost multipliers; 1x is the ``vessel`` variant
MULTIPLIERS = (1, 4, 8, 16, 32, 48)


def run(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = cfg or ExperimentConfig()
    rate = LOAD * l_capacity_mops(cfg, MEMCACHED_MEAN_SERVICE_NS)
    mixed = dict(l_specs=[("memcached", "memcached", rate)],
                 b_specs=("linpack",))
    # (label, system, cfg, run_colocation kwargs, the L-app whose P999
    # the row reports)
    variants = [(label, system, cfg.scaled(costs=transform(cfg.costs)),
                 mixed, "memcached")
                for label, (system, transform) in VARIANTS.items()]
    # Quantum sweep: rotation only fires when run queues form, so this
    # uses the dense shape (4 L-apps on 2 cores, no B-app).  Short
    # quanta buy fairness with switch overhead; 20 µs is the stock
    # default, 5/80 bracket it.
    dense = dict(l_specs=[("memcached", f"mc{i}", 0.7) for i in range(4)],
                 b_specs=())
    variants += [
        (f"vessel-q{quantum_us}us", "vessel",
         cfg.scaled(num_workers=2, policy="default", policy_params={
             "rotation_quantum_ns": quantum_us * 1_000,
             "l_preempt_quantum_ns": quantum_us * 1_000,
         }), dense, "mc0")
        for quantum_us in QUANTUM_SWEEP_US]
    switch_costs = [scaled_switch_costs(cfg.costs, multiplier)
                    for multiplier in MULTIPLIERS]
    # The 1x switch point is the ``vessel`` variant's run, not a rerun.
    reports = run_colocation_batch(
        [(system, run_cfg, kwargs)
         for _, system, run_cfg, kwargs, _ in variants]
        + [("vessel", cfg.scaled(costs=costs), mixed)
           for costs in switch_costs[1:]],
        jobs=cfg.jobs)

    by_label = {}
    rows: List[Dict] = []
    for (label, _, _, _, app), report in zip(variants, reports):
        by_label[label] = report
        rows.append({
            "variant": label,
            "app_fraction": report.app_fraction(),
            "waste_fraction": report.waste_fraction(),
            "p999_us": report.p999_us(app),
        })
    gate = callgate_defense_costs(cfg.costs)

    switch_reports = [by_label["vessel"]] + reports[len(variants):]
    switch_sweep = [{
        "multiplier": multiplier,
        "switch_us": costs.vessel_park_switch_ns() / 1000.0,
        "waste": report.waste_fraction(),
        "p999_us": report.p999_us("memcached"),
    } for multiplier, costs, report in zip(MULTIPLIERS, switch_costs,
                                           switch_reports)]
    caladan_waste = by_label["caladan"].waste_fraction()
    caladan_p999 = by_label["caladan"].p999_us("memcached")
    return {
        "rows": rows,
        "gate_defense": gate,
        "load": LOAD,
        "switch_sweep": switch_sweep,
        "caladan_waste": caladan_waste,
        "caladan_p999_us": caladan_p999,
        "efficiency_crossover_us": next(
            (r["switch_us"] for r in switch_sweep
             if r["waste"] >= caladan_waste), None),
        "latency_crossover_us": next(
            (r["switch_us"] for r in switch_sweep
             if r["p999_us"] >= caladan_p999), None),
    }


def callgate_defense_costs(costs: CostModel) -> Dict[str, int]:
    """Park-switch cost with the §4.2 defenses individually removed."""
    full = costs.vessel_park_switch_ns()
    no_recheck = costs.copy(callgate_exit_ns=costs.wrpkru_ns)
    no_stack_switch = costs.copy(
        callgate_enter_ns=costs.wrpkru_ns + 5)  # no stack swap, no vector
    bare = costs.copy(callgate_exit_ns=costs.wrpkru_ns,
                      callgate_enter_ns=costs.wrpkru_ns + 5)
    return {
        "full_defenses_ns": full,
        "no_pkru_recheck_ns": no_recheck.vessel_park_switch_ns(),
        "no_stack_switch_ns": no_stack_switch.vessel_park_switch_ns(),
        "no_defenses_ns": bare.vessel_park_switch_ns(),
    }


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    results = run(cfg)
    rows = [[r["variant"], round(r["app_fraction"], 3),
             round(r["waste_fraction"], 3), round(r["p999_us"], 1)]
            for r in results["rows"]]
    print(f"Ablations (memcached+linpack at {results['load']:.0%} load; "
          f"vessel-qNus rows sweep the rotation/long-request quanta over "
          f"the dense 4-apps-on-2-cores shape)")
    print(format_table(["variant", "app fraction", "waste", "P999 us"],
                       rows))
    gate = results["gate_defense"]
    print("\ncall-gate defense cost on the park switch:")
    for key, value in gate.items():
        print(f"  {key:22s} {value} ns")

    rows = [[r["multiplier"], round(r["switch_us"], 2),
             f"{r['waste']:.1%}", round(r["p999_us"], 1)]
            for r in results["switch_sweep"]]
    print(f"\nSwitch-cost sensitivity (memcached+linpack at "
          f"{results['load']:.0%} load; the 1x row is the vessel variant)")
    print(format_table(["cost x", "park switch us", "VESSEL waste",
                        "VESSEL P999 us"], rows))
    print(f"\nstock Caladan reference (the caladan variant): waste "
          f"{results['caladan_waste']:.1%}, "
          f"P999 {results['caladan_p999_us']:.1f} us")
    eff = results["efficiency_crossover_us"]
    lat = results["latency_crossover_us"]
    print(f"efficiency crossover: VESSEL's waste reaches Caladan's at a "
          f"~{eff:.1f} us switch" if eff else
          "efficiency crossover: not reached in this range")
    print(f"latency crossover: VESSEL's P999 reaches Caladan's at a "
          f"~{lat:.1f} us switch" if lat else
          "latency crossover: not reached in this range "
          "(even expensive direct switches beat the 10 us tick)")
    return results
