"""Churn scenario: continuous uProcess create/destroy under load.

Multi-tenant turnover is where the paper's teardown story earns its
keep: every retirement must release the tenant's SMAS slot, pkey, boot
kProcess, signal handler, and kernel descriptors, and every spawn must
boot cleanly into a recycled slot — while long-lived tenants keep
serving.  The run drives several churn lanes against a VESSEL system
for the whole window, then audits for kernel-side residue with the
fault injector's containment audit (an empty fault plan attaches the
audit without injecting anything).

What to look for:

* ``created``/``destroyed`` in the hundreds with ``slots_in_use`` equal
  to the live population — slots are recycled, not leaked;
* the containment audit is empty (no stale signal handlers, no dead
  boot kProcesses); no churn tenant opens a descriptor, so the fd-table
  count is always 0 here (descriptor reclaim is tested in
  ``tests/vessel/test_runtime.py`` and ``tests/faults/test_containment.py``);
* the long-lived tenant's p99 is unaffected by neighbours booting and
  dying (compare against the no-churn control row).

The ``churn`` row of ``tests/test_claims.py`` judges turnover and leaks
on the ``--smoke`` run.

Usage::

    PYTHONPATH=src python -m repro churn            # scenario
    PYTHONPATH=src python -m repro churn --smoke    # CI-sized
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    run_colocation_batch,
)
from repro.overload.churn import ChurnConfig

#: offered load for the long-lived tenant (Mops/s)
RESIDENT_RATE_MOPS = 0.4


def churn_config(cfg: ExperimentConfig) -> ChurnConfig:
    """Turnover sized to the run: lanes churn fast enough that a smoke
    window still sees dozens of full create/destroy/create cycles."""
    return ChurnConfig(tenants=3, lifetime_us=400.0, respawn_gap_us=100.0,
                       rate_mops=0.2)


def run(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = cfg or ExperimentConfig()
    l_specs = [("memcached", "resident", RESIDENT_RATE_MOPS)]
    tasks = [
        # Control: the same resident + batch colocation, no churn.
        ("vessel", cfg, dict(l_specs=l_specs, b_specs=("linpack",))),
        # Scenario: three churn lanes spawning/retiring throughout.
        ("vessel", cfg, dict(l_specs=l_specs, b_specs=("linpack",),
                             churn=churn_config(cfg))),
    ]
    reports = run_colocation_batch(tasks, jobs=cfg.jobs)
    control, churned = reports
    return {"control": control, "churned": churned}


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    results = run(cfg)
    control, churned = results["control"], results["churned"]
    snap = churned.churn
    print("Churn scenario: 3 lanes of tenants booting and dying next to "
          "a resident memcached + linpack")
    rows: List[List] = []
    for label, report in (("no churn", control), ("churn", churned)):
        rows.append([
            label,
            round(report.p99_us("resident"), 1),
            report.completed.get("resident", 0),
            report.churn.get("created", 0),
            report.churn.get("destroyed", 0),
            report.churn.get("slots_in_use", "-"),
            len(report.uncontained) if report.churn else "-",
        ])
    print(format_table(
        ["run", "resident P99 us", "completed", "created", "destroyed",
         "slots", "leaks"], rows))
    print(f"teardown residue: {snap['signal_handlers']} signal handlers, "
          f"{snap['dead_children']} dead boot kProcesses, "
          f"{snap['kernel_fd_tables']} live fd tables, "
          f"roster {snap['domain_roster']} uProcesses for "
          f"{snap['active']} churning + 2 resident")
    for issue in churned.uncontained:
        print(f"  LEAK: {issue}")
    return results
