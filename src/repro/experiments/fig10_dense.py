"""Figure 10: dense colocation of memcached instances on one core (§6.2.2).

1 instance vs 10 instances share a single worker core, with bursty
clients (10 connections per instance).  The paper compares VESSEL with
Caladan-DR-L only (the other systems are orders of magnitude worse):

* with 1 instance both systems have similar peak throughput and tails;
* with 10 instances Caladan's peak throughput drops ~25% and its P999
  rises ~20%, while VESSEL is almost unchanged, because inter-app
  switches cost VESSEL the same 0.16 µs as intra-app ones instead of a
  kernel-mediated reallocation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    run_colocation_batch,
)

SYSTEMS = ("vessel", "caladan-dr-l")
COUNTS = (1, 10)
#: aggregate offered load on the single core, fraction of capacity
LOADS = (0.3, 0.5, 0.7, 0.85)
P999_LIMIT_US = 100.0


def run(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = (cfg or ExperimentConfig()).scaled(num_workers=1, bursty=True)
    capacity_mops = 1.0  # one worker core at ~1 us mean service
    points = [(system, count, load) for system in SYSTEMS
              for count in COUNTS for load in LOADS]
    tasks = []
    for system, count, load in points:
        per_app = load * capacity_mops / count
        l_specs = [("memcached", f"mc{i}", per_app) for i in range(count)]
        tasks.append((system, cfg, dict(l_specs=l_specs, b_specs=())))
    reports = run_colocation_batch(tasks, jobs=cfg.jobs)
    curves: List[Dict] = []
    for (system, count, load), (_, _, kwargs), report in zip(points, tasks,
                                                             reports):
        l_specs = kwargs["l_specs"]
        agg_tput = sum(report.throughput_mops(s[1]) for s in l_specs)
        worst_p999 = max(report.p999_us(s[1]) for s in l_specs)
        curves.append({
            "system": system,
            "instances": count,
            "load": load,
            "agg_tput_mops": agg_tput,
            "p999_us": worst_p999,
        })
    summary = {}
    for system in SYSTEMS:
        for count in COUNTS:
            points = [c for c in curves if c["system"] == system
                      and c["instances"] == count]
            ok = [c for c in points if c["p999_us"] <= P999_LIMIT_US]
            summary[(system, count)] = {
                "peak_tput_mops": max((c["agg_tput_mops"] for c in ok),
                                      default=0.0),
                "p999_at_peak_us": max((c["p999_us"] for c in ok),
                                       default=float("nan")),
            }
    return {"curves": curves, "summary": summary,
            "p999_limit_us": P999_LIMIT_US}


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    results = run(cfg)
    rows = [[c["system"], c["instances"], c["load"],
             round(c["agg_tput_mops"], 3), round(c["p999_us"], 1)]
            for c in results["curves"]]
    print("Figure 10: dense colocation on one core (bursty clients)")
    print(format_table(["system", "#apps", "load", "agg tput Mops",
                        "worst P999 us"], rows))
    print(f"\npeak throughput at P999 <= {results['p999_limit_us']:.0f} us:")
    for (system, count), stats in results["summary"].items():
        print(f"  {system:13s} x{count:2d}: "
              f"{stats['peak_tput_mops']:.3f} Mops "
              f"(P999 {stats['p999_at_peak_us']:.1f} us)")
    print("paper: Caladan's peak declines ~25% and P999 rises ~20% from "
          "1 to 10 instances; VESSEL is almost unchanged")
    return results
