#!/usr/bin/env python
"""Colocation study: sweep L-app load across schedulers (Figure 9 style).

Compares VESSEL against Caladan (and its Delay Range variants) on the
same machine, workload, and seed, and prints total normalized throughput
and P999 tail latency per load point.

Run:  python examples/colocation_study.py
"""

from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    l_capacity_mops,
    normalized_total,
    run_colocation,
)
from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS

SYSTEMS = ("ideal", "vessel", "caladan", "caladan-dr-l", "caladan-dr-h")
LOADS = (0.25, 0.5, 0.75)


def main() -> None:
    cfg = ExperimentConfig()
    capacity = l_capacity_mops(cfg, MEMCACHED_MEAN_SERVICE_NS)
    print(f"machine: {cfg.num_workers} workers, capacity ~"
          f"{capacity:.1f} Mops/s; window {cfg.sim_ms} ms\n")

    rows = []
    for system in SYSTEMS:
        for load in LOADS:
            report = run_colocation(
                system, cfg,
                l_specs=[("memcached", "memcached", load * capacity)],
                b_specs=("linpack",))
            rows.append([
                system, load,
                round(normalized_total(
                    report, cfg,
                    {"memcached": MEMCACHED_MEAN_SERVICE_NS}), 3),
                round(report.waste_fraction(), 3),
                round(report.p999_us("memcached"), 1),
            ])
    print(format_table(
        ["system", "L load", "total norm tput", "waste", "P999 us"], rows))
    print("\nreading guide: ideal pins 1.000 total normalized throughput;"
          "\nVESSEL should sit within a few percent of it with single-digit"
          "\nmicrosecond tails, while the Caladan variants trade 9-20% of"
          "\nthroughput (or 3-8x the tail) for their kernel-mediated"
          "\nswitching - the paper's Figure 9.")


if __name__ == "__main__":
    main()
