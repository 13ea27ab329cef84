"""Figure 9: colocating an L-app and a B-app across all systems (§6.2.1).

Top row: memcached + Linpack; bottom row: Silo (TPC-C) + Linpack.  For
each system and L-app load we report the total normalized throughput
(footnote-1 formula), the B-app's normalized throughput, and the L-app's
P999 latency.

Paper's headline observations this experiment reproduces:

* VESSEL's total normalized throughput is almost flat (-6.6% on average)
  while Caladan declines 16.1% on average / 32.1% at most;
* VESSEL's P999 is well below every Caladan variant; DR-H approaches
  VESSEL's efficiency but pays ~79% higher P999;
* Arachne collapses beyond ~1 Mops; CFS keeps decent total throughput
  but its L-app latency explodes past 10 ms;
* with Silo (20-280 µs requests) Caladan and VESSEL both approach the
  ideal — reallocation costs amortize over long requests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    l_capacity_mops,
    normalized_total,
    run_colocation_batch,
)
from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS
from repro.workloads.silo import SILO_MEDIAN_SERVICE_NS, SILO_SIGMA
import math

SILO_MEAN_SERVICE_NS = SILO_MEDIAN_SERVICE_NS * math.exp(SILO_SIGMA ** 2 / 2)

SYSTEMS = ("vessel", "caladan", "caladan-dr-l", "caladan-dr-h")
#: Arachne and CFS are only driven to low loads, as in the paper
#: (absolute Mops: the paper stops at ~1 Mops for Arachne, 0.3 for CFS,
#: because both collapse there regardless of machine size)
LOW_LOAD_SYSTEMS = ("arachne", "linux-cfs")
LOADS = (0.2, 0.4, 0.6, 0.8)
LOW_LOAD_MOPS = (0.5, 1.2)


def _sweep(cfg: ExperimentConfig, l_kind: str, mean_service_ns: float,
           systems: Sequence[str], loads: Sequence[float]) -> List[Dict]:
    capacity = l_capacity_mops(cfg, mean_service_ns)
    points = [(system, load) for system in systems for load in loads]
    # Every (system, load) point is an independent hermetic simulation,
    # so the sweep fans out over cfg.jobs worker processes; reports come
    # back in point order, keeping rows (and stdout) byte-identical to
    # the serial loop.
    reports = run_colocation_batch(
        [(system, cfg, dict(l_specs=[(l_kind, l_kind, load * capacity)],
                            b_specs=("linpack",)))
         for system, load in points],
        jobs=cfg.jobs)
    rows = []
    for (system, load), report in zip(points, reports):
        rows.append({
            "system": system,
            "load": load,
            "rate_mops": load * capacity,
            "l_tput_mops": report.throughput_mops(l_kind),
            "total_normalized": normalized_total(
                report, cfg, {l_kind: mean_service_ns}),
            "b_normalized": report.useful_ns.get("linpack", 0)
            / (report.elapsed_ns * report.num_worker_cores),
            "p999_us": report.p999_us(l_kind),
        })
    return rows


def run(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = cfg or ExperimentConfig()
    capacity = l_capacity_mops(cfg, MEMCACHED_MEAN_SERVICE_NS)
    low_loads = tuple(mops / capacity for mops in LOW_LOAD_MOPS)
    results: Dict = {
        "memcached": _sweep(cfg, "memcached", MEMCACHED_MEAN_SERVICE_NS,
                            SYSTEMS, LOADS)
        + _sweep(cfg, "memcached", MEMCACHED_MEAN_SERVICE_NS,
                 LOW_LOAD_SYSTEMS, low_loads),
        "silo": _sweep(cfg, "silo", SILO_MEAN_SERVICE_NS, SYSTEMS, LOADS),
    }
    # Summary statistics matching the paper's prose.
    summary = {}
    for system in SYSTEMS:
        declines = [1.0 - r["total_normalized"]
                    for r in results["memcached"] if r["system"] == system]
        summary[system] = {
            "avg_decline": sum(declines) / len(declines),
            "max_decline": max(declines),
        }
    results["summary"] = summary
    return results


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    results = run(cfg)
    for workload in ("memcached", "silo"):
        rows = [[r["system"], r["load"], round(r["rate_mops"], 2),
                 round(r["l_tput_mops"], 2), round(r["total_normalized"], 3),
                 round(r["b_normalized"], 3), round(r["p999_us"], 1)]
                for r in results[workload]]
        print(f"Figure 9 ({workload} + Linpack)")
        print(format_table(
            ["system", "load", "offered Mops", "L tput", "total norm",
             "B norm", "P999 us"], rows))
        print()
    print("average decline in total normalized throughput "
          "(paper: VESSEL 6.6%, Caladan 16.1% avg / 32.1% max):")
    for system, stats in results["summary"].items():
        print(f"  {system:14s} avg {stats['avg_decline']:.1%}  "
              f"max {stats['max_decline']:.1%}")
    return results
