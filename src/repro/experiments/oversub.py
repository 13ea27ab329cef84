"""Oversubscription: 2-4x more runnable uProcesses than cores.

The paper's evaluation colocates a handful of tenants on a machine with
cores to spare for each; dense multi-tenancy inverts that — many small
latency tenants, each entitled to less than a core, all runnable at
once.  With the offered load summing to ~1.3x capacity the system can
never drain; the question is whether congestion stays *fair and
bounded* (every tenant sheds a little, keeps a watermark-bounded queue)
or *accumulates* (queues grow for the whole run and the slowest tenants
starve).

Each oversubscription factor runs twice on VESSEL: unprotected, and
with admission control at the submit boundary.  The worst-tenant
columns tell the story — admission converts an ever-growing backlog
(worst queue ≈ thousands, p99 ≈ milliseconds) into per-tenant shedding
with microsecond-scale tails.

Usage::

    PYTHONPATH=src python -m repro oversub
    PYTHONPATH=src python -m repro oversub --smoke
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.units import US
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    l_capacity_mops,
    run_colocation_batch,
)
from repro.overload.admission import AdmissionConfig
from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS

#: tenants per worker core for each arm (the oversubscription factors)
FACTORS = (2, 3)
#: combined offered load as a fraction of capacity (> 1: never drains)
TOTAL_LOAD = 1.3
#: the watermarks every protected arm applies to each of its tenants,
#: whatever the factor: a short queue (a tenant's fair share of the
#: machine is under a core) and a tight age cap
ADMISSION = AdmissionConfig(max_queue_depth=24, max_oldest_wait_ns=100 * US)


def run(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = cfg or ExperimentConfig()
    # SMAS holds 13 uProcesses; factor * workers tenants + linpack must
    # fit, so oversubscription runs on a 4-worker slice.
    cfg = cfg.scaled(num_workers=min(cfg.num_workers, 4))
    capacity = l_capacity_mops(cfg, MEMCACHED_MEAN_SERVICE_NS)
    tasks = []
    labels = []
    for factor in FACTORS:
        tenants = factor * cfg.num_workers
        rate = TOTAL_LOAD * capacity / tenants
        l_specs = [("memcached", f"t{i:02d}", rate) for i in range(tenants)]
        for protected in (False, True):
            kwargs = dict(l_specs=l_specs, b_specs=("linpack",),
                          track_queues=True)
            if protected:
                kwargs["admission"] = ADMISSION
            tasks.append(("vessel", cfg, kwargs))
            labels.append((factor, tenants, protected))
    reports = run_colocation_batch(tasks, jobs=cfg.jobs)
    return {"arms": list(zip(labels, reports)), "cfg": cfg,
            "capacity": capacity}


def _worst(values: Dict[str, float]) -> float:
    return max(values.values()) if values else float("nan")


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    results = run(cfg)
    cfg = results["cfg"]
    print(f"Oversubscription: N tenants on {cfg.num_workers} workers at "
          f"{TOTAL_LOAD:.0%} combined load (open loop, never drains)")
    rows: List[List] = []
    for (factor, tenants, protected), report in results["arms"]:
        p99s = {name: report.p99_us(name) for name in report.completed}
        shed_total = sum(sum(per.values()) for per in
                         report.admission.get("shed", {}).values())
        rows.append([
            f"{factor}x" + (" +admission" if protected else ""),
            tenants,
            sum(report.completed.values()),
            round(_worst(p99s), 1),
            shed_total,
            _worst(report.queue_peak) if report.queue_peak else 0,
            _worst(report.queue_final) if report.queue_final else 0,
        ])
    print(format_table(
        ["arm", "tenants", "done", "worst P99 us", "shed",
         "worst q peak", "worst q end"], rows))
    print("(admission bounds every tenant's queue at the watermark; "
          "unprotected queues keep growing for the whole window)")
    return results
