"""Figure 1: the cost of application colocation under Caladan (§2.1).

(a) Total normalized throughput of memcached (L) + Linpack (B) as the
    L-app's load rises — an ideal scheduler holds 1.0, Caladan declines
    by up to 18%.
(b) Where the CPU cores actually go: application logic vs kernel+runtime
    ("up to 17% of CPU cycles are not spent on executing the application
    logic").
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    l_capacity_mops,
    normalized_total,
    run_colocation_batch,
)
from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS

PAPER_MAX_DECLINE = 0.18
PAPER_MAX_WASTE = 0.17

#: L-app load as a fraction of its alone capacity
LOAD_POINTS = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85)


def run(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = cfg or ExperimentConfig()
    capacity = l_capacity_mops(cfg, MEMCACHED_MEAN_SERVICE_NS)
    reports = run_colocation_batch(
        [("caladan", cfg,
          dict(l_specs=[("memcached", "memcached", load * capacity)],
               b_specs=("linpack",)))
         for load in LOAD_POINTS],
        jobs=cfg.jobs)
    points: List[Dict] = []
    for load, report in zip(LOAD_POINTS, reports):
        rate = load * capacity
        total_norm = normalized_total(
            report, cfg, {"memcached": MEMCACHED_MEAN_SERVICE_NS})
        points.append({
            "load": load,
            "rate_mops": rate,
            "total_normalized": total_norm,
            "app_cores": report.cores_equivalent("app"),
            "kernel_cores": report.cores_equivalent("kernel"),
            "runtime_cores": report.cores_equivalent("runtime"),
            "waste_fraction": report.waste_fraction(),
            "p999_us": report.p999_us("memcached"),
        })
    max_decline = max(1.0 - p["total_normalized"] for p in points)
    max_waste = max(p["waste_fraction"] for p in points)
    return {
        "points": points,
        "max_decline": max_decline,
        "max_waste": max_waste,
        "paper_max_decline": PAPER_MAX_DECLINE,
        "paper_max_waste": PAPER_MAX_WASTE,
    }


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    results = run(cfg)
    rows = [[p["load"], round(p["rate_mops"], 2),
             round(p["total_normalized"], 3), round(p["app_cores"], 2),
             round(p["kernel_cores"], 2), round(p["runtime_cores"], 2)]
            for p in results["points"]]
    print("Figure 1: cost of colocation (Caladan, memcached + Linpack)")
    print(format_table(
        ["L load", "rate Mops", "total norm tput", "app cores",
         "kernel cores", "runtime cores"], rows))
    print(f"max decline: measured {results['max_decline']:.1%}, "
          f"paper up to {results['paper_max_decline']:.0%}")
    print(f"max kernel+runtime share: measured {results['max_waste']:.1%}, "
          f"paper up to {results['paper_max_waste']:.0%}")
    return results
