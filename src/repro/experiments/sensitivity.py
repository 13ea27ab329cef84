"""Sensitivity study: how cheap must switching be for VESSEL to win?

The paper's thesis is that sub-microsecond reallocation *enables* the
aggressive one-level policy.  This study scales every component of the
userspace switch path by a multiplier (1x = the real 0.16 µs up to
~48x ≈ Caladan's cooperative switch) and runs the same colocation under
VESSEL each time, against a stock-Caladan reference.  Two crossovers
fall out:

* efficiency: the load-weighted scheduling waste overtakes Caladan's
  once the switch costs a few microseconds — the one-level policy
  switches ~10x more often, so it must be ~10x cheaper to break even;
* latency: VESSEL's P999 stays below Caladan's much longer, because even
  an expensive direct switch beats the 10 µs allocation tick.
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

MULTIPLIERS = (1, 4, 8, 16, 32, 48)
LOAD = 0.5


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


def run(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = cfg or ExperimentConfig()
    rate = LOAD * l_capacity_mops(cfg, MEMCACHED_MEAN_SERVICE_NS)

    reference = run_colocation("caladan", cfg,
                               l_specs=[("memcached", "memcached", rate)],
                               b_specs=("linpack",))
    rows: List[Dict] = []
    for multiplier in MULTIPLIERS:
        variant = cfg.scaled(costs=scaled_switch_costs(cfg.costs,
                                                       multiplier))
        report = run_colocation("vessel", variant,
                                l_specs=[("memcached", "memcached", rate)],
                                b_specs=("linpack",))
        rows.append({
            "multiplier": multiplier,
            "switch_us": variant.costs.vessel_park_switch_ns() / 1000.0,
            "waste": report.waste_fraction(),
            "p999_us": report.p999_us("memcached"),
        })

    caladan_waste = reference.waste_fraction()
    caladan_p999 = reference.p999_us("memcached")
    efficiency_crossover = next(
        (r["switch_us"] for r in rows if r["waste"] >= caladan_waste),
        None)
    latency_crossover = next(
        (r["switch_us"] for r in rows if r["p999_us"] >= caladan_p999),
        None)
    return {
        "rows": rows,
        "caladan_waste": caladan_waste,
        "caladan_p999_us": caladan_p999,
        "efficiency_crossover_us": efficiency_crossover,
        "latency_crossover_us": latency_crossover,
        "load": LOAD,
    }


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    results = run(cfg)
    rows = [[r["multiplier"], round(r["switch_us"], 2),
             f"{r['waste']:.1%}", round(r["p999_us"], 1)]
            for r in results["rows"]]
    print(f"Switch-cost sensitivity (memcached+linpack at "
          f"{results['load']:.0%} load)")
    print(format_table(["cost x", "park switch us", "VESSEL waste",
                        "VESSEL P999 us"], rows))
    print(f"\nstock Caladan reference: waste "
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
