"""Ablations: which part of VESSEL buys what (DESIGN.md §7).

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

Also quantifies the §4.2 call-gate defense cost (stack switch + PKRU
recheck) on the park-switch path, and sweeps the scheduler's two
quantum knobs (BE rotation quantum, §4.4 long-request preemption
threshold) now that they are policy parameters rather than module
constants — ``vessel-q5us`` / ``vessel-q80us`` bracket the stock 20 µs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hardware.timing import CostModel
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    l_capacity_mops,
    run_colocation,
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


VARIANTS = {
    "vessel": ("vessel", lambda c: c),
    "vessel-no-uintr": ("vessel", _no_uintr_costs),
    "vessel-kernel-switch": ("vessel", _kernel_switch_costs),
    "caladan": ("caladan", lambda c: c),
    "caladan-fast-switch": ("caladan", _fast_caladan_costs),
}

#: rotation/long-request quantum sweep (µs); the stock value is 20
QUANTUM_SWEEP_US = (5, 20, 80)


def run(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = cfg or ExperimentConfig()
    rate = LOAD * l_capacity_mops(cfg, MEMCACHED_MEAN_SERVICE_NS)
    rows: List[Dict] = []
    for label, (system, transform) in VARIANTS.items():
        variant_cfg = cfg.scaled(costs=transform(cfg.costs))
        report = run_colocation(system, variant_cfg,
                                l_specs=[("memcached", "memcached", rate)],
                                b_specs=("linpack",))
        rows.append({
            "variant": label,
            "app_fraction": report.app_fraction(),
            "waste_fraction": report.waste_fraction(),
            "p999_us": report.p999_us("memcached"),
        })
    # Quantum sweep: rotation only fires when run queues form, so this
    # uses the dense shape (4 L-apps on 2 cores, no B-app).  Short
    # quanta buy fairness with switch overhead; 20 µs is the stock
    # default, 5/80 bracket it.
    for quantum_us in QUANTUM_SWEEP_US:
        quantum_ns = quantum_us * 1_000
        variant_cfg = cfg.scaled(num_workers=2, policy="default",
                                 policy_params={
                                     "rotation_quantum_ns": quantum_ns,
                                     "l_preempt_quantum_ns": quantum_ns,
                                 })
        report = run_colocation(
            "vessel", variant_cfg,
            l_specs=[("memcached", f"mc{i}", 0.7) for i in range(4)],
            b_specs=())
        rows.append({
            "variant": f"vessel-q{quantum_us}us",
            "app_fraction": report.app_fraction(),
            "waste_fraction": report.waste_fraction(),
            "p999_us": report.p999_us("mc0"),
        })
    gate = callgate_defense_costs(cfg.costs)
    return {"rows": rows, "gate_defense": gate, "load": LOAD}


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
    return results
