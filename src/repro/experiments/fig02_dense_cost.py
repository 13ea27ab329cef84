"""Figure 2: the cost of dense colocation (§2.1).

Several memcached instances share a *single* core under Caladan; as the
instance count grows, the share of cycles spent in the kernel (switch
pipelines, park/rebind) grows with it.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    run_colocation,
)

COUNTS = (1, 2, 4, 8)
#: combined offered load on the single core, fraction of its capacity
TOTAL_LOAD = 0.5


def run(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = (cfg or ExperimentConfig()).scaled(num_workers=1)
    capacity_mops = 1.0  # one worker, ~1 us service
    points = []
    for count in COUNTS:
        per_app = TOTAL_LOAD * capacity_mops / count
        l_specs = [("memcached", f"mc{i}", per_app) for i in range(count)]
        report = run_colocation("caladan", cfg, l_specs=l_specs,
                                b_specs=())
        points.append({
            "instances": count,
            "app_fraction": report.app_fraction(),
            "kernel_fraction": report.buckets.get("kernel", 0)
            / max(1, report.elapsed_ns),
            "runtime_fraction": report.buckets.get("runtime", 0)
            / max(1, report.elapsed_ns),
            "p999_us": max(report.p999_us(s[1]) for s in l_specs),
        })
    return {"points": points}


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    results = run(cfg)
    rows = [[p["instances"], round(p["app_fraction"], 3),
             round(p["kernel_fraction"], 3), round(p["runtime_fraction"], 3),
             round(p["p999_us"], 1)]
            for p in results["points"]]
    print("Figure 2: dense colocation on one core (Caladan)")
    print(format_table(["# L-apps", "app frac", "kernel frac",
                        "runtime frac", "worst P999 us"], rows))
    print("paper: CPU cycles spent in the kernel increase with the number "
          "of colocated applications")
    return results
