"""Figure 12: CPU core scalability (§6.3.3).

Goodput = the highest throughput a system sustains within a P999 limit
of 60 µs, as the number of managed cores grows.  The binding constraint
is the *control plane*: one VESSEL scheduler pass costs
``vessel_sched_per_core_ns`` per managed core, so past ~42 cores the
scan interval stretches and reaction latency rises; Caladan's IOKernel
pays ~12x more per core (it also forwards packets), so it stops scaling
at ~34 cores.

Paper: VESSEL's goodput rises ~25.4% from 32 to 42 cores and the gain
drops back to ~22.8% at 44; Caladan gains only ~1.45% from 32 to 34 and
declines beyond.

This is by far the heaviest experiment; the load grid is coarse, so
goodput values are quantized to it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    l_capacity_mops,
    run_colocation_batch,
)
from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS

P999_LIMIT_US = 60.0
DEFAULT_VESSEL_CORES = (32, 42, 44)
DEFAULT_CALADAN_CORES = (32, 34, 36)
DEFAULT_LOADS = (0.2, 0.3, 0.45, 0.6, 0.75)


def goodput_from_reports(rates: Sequence[float], reports: Sequence) -> Dict:
    """Highest sustained throughput within the P999 limit on this grid."""
    best = 0.0
    best_p999 = float("nan")
    for rate, report in zip(rates, reports):
        p999 = report.p999_us("memcached")
        tput = report.throughput_mops("memcached")
        # Must sustain the offered load AND meet the SLO.
        if p999 <= P999_LIMIT_US and tput >= 0.95 * rate and tput > best:
            best = tput
            best_p999 = p999
    return {"goodput_mops": best, "p999_us": best_p999}


def run(cfg: Optional[ExperimentConfig] = None,
        vessel_cores: Sequence[int] = DEFAULT_VESSEL_CORES,
        caladan_cores: Sequence[int] = DEFAULT_CALADAN_CORES,
        loads: Sequence[float] = DEFAULT_LOADS) -> Dict:
    base = cfg or ExperimentConfig()
    # Bursty clients (as in the paper's dense/bursty setups): reaction
    # latency to burst onsets is what the control plane limits.
    base = base.scaled(bursty=True)
    # Every (system, cores, load) cell is independent, so the whole grid
    # fans out at once; goodput is then folded per (system, cores) curve
    # in the original load order.
    grid: List[Dict] = []
    tasks = []
    for system, counts in (("vessel", vessel_cores),
                           ("caladan", caladan_cores)):
        for cores in counts:
            scaled = base.scaled(num_workers=cores)
            capacity = l_capacity_mops(scaled, MEMCACHED_MEAN_SERVICE_NS)
            rates = [load * capacity for load in loads]
            grid.append({"system": system, "cores": cores, "rates": rates})
            tasks.extend(
                (system, scaled,
                 dict(l_specs=[("memcached", "memcached", rate)],
                      b_specs=("linpack",)))
                for rate in rates)
    reports = run_colocation_batch(tasks, jobs=base.jobs)
    points: List[Dict] = []
    offset = 0
    for cell in grid:
        rates = cell.pop("rates")
        cell_reports = reports[offset:offset + len(rates)]
        offset += len(rates)
        points.append({**cell, **goodput_from_reports(rates, cell_reports)})
    gains = {}
    for system in ("vessel", "caladan"):
        series = [p for p in points if p["system"] == system]
        baseline = series[0]["goodput_mops"]
        for p in series:
            p["gain_vs_first"] = (p["goodput_mops"] / baseline - 1.0
                                  if baseline > 0 else float("nan"))
        gains[system] = {p["cores"]: p["gain_vs_first"] for p in series}
    return {"points": points, "gains": gains,
            "p999_limit_us": P999_LIMIT_US}


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    results = run(cfg)
    rows = [[p["system"], p["cores"], round(p["goodput_mops"], 2),
             round(p["p999_us"], 1), f"{p['gain_vs_first']:+.1%}"]
            for p in results["points"]]
    print(f"Figure 12: goodput at P999 <= {results['p999_limit_us']:.0f} us "
          f"vs managed cores")
    print(format_table(["system", "cores", "goodput Mops", "P999 us",
                        "gain vs fewest"], rows))
    print("paper: VESSEL +25.4% from 32 to 42 cores (dips at 44); "
          "Caladan +1.45% from 32 to 34, declining beyond")
    return results
