"""Network smoke: client-observed latency through the simulated fabric.

This is the ``--net`` counterpart of ``chaos``: a short colocation
sweep where load is delivered by simulated client machines over the
100 Gbps link and multi-queue NIC instead of direct submission, plus a
lossy-link run with injected packet drops/delays.  The ``net-*`` rows
of ``tests/test_claims.py`` judge it: client-observed P99 is positive
and at least the server-side P99 at every load point (the network path
can only add latency), and the lossy link injects faults that clients
retry and that all stay contained.

Usage::

    PYTHONPATH=src python -m repro net
    PYTHONPATH=src python -m repro net --op-breakdown
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    l_capacity_mops,
    run_colocation,
    run_colocation_batch,
)
from repro.faults import FaultPlan
from repro.net import NetConfig
from repro.sim.units import MS, US
from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS

SYSTEMS = ("vessel", "caladan")
LOADS = (0.2, 0.5)
#: packet-fault intensities for the lossy-link run
DROP_P = 0.02
DELAY_NS = 20 * US
DELAY_P = 0.05


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = cfg or ExperimentConfig()
    if cfg.net is None:
        cfg = cfg.scaled(net=NetConfig())
    capacity = l_capacity_mops(cfg, MEMCACHED_MEAN_SERVICE_NS)

    sweep = [(system, load) for system in SYSTEMS for load in LOADS]
    reports = run_colocation_batch(
        [(system, cfg, dict(
            l_specs=[("memcached", "memcached", load * capacity)],
            b_specs=("linpack",)))
         for system, load in sweep],
        jobs=cfg.jobs)
    rows = []
    points = []
    for (system, load), report in zip(sweep, reports):
        server_p99 = report.latency["memcached"]["p99_us"]
        client_p99 = report.client_p99_us("memcached")
        counters = report.net_ops["memcached"]
        rows.append([system, load,
                     f"{server_p99:.1f}", f"{client_p99:.1f}",
                     counters["offered"], counters["completed"],
                     counters["retries"], counters["losses"]])
        points.append((system, load, server_p99, client_p99))
    print("Client-observed vs server-side tail latency "
          "(memcached + linpack over the simulated fabric):")
    print(format_table(
        ["system", "load", "server p99 us", "client p99 us", "offered",
         "completed", "retries", "losses"], rows))

    # ---- lossy link: injected packet drops/delays ---------------------
    # Run after the table is printed, so under --op-breakdown this run's
    # ledger table follows the sweep's table.
    plan = (FaultPlan(seed=cfg.seed)
            .drop_packets(DROP_P, at_ns=cfg.warmup_ms * MS)
            .delay_packets(DELAY_NS, probability=DELAY_P,
                           at_ns=cfg.warmup_ms * MS))
    report = run_colocation(
        "vessel", cfg,
        l_specs=[("memcached", "memcached", LOADS[-1] * capacity)],
        b_specs=("linpack",), fault_plan=plan)
    counters = report.net_ops["memcached"]
    print(f"\nLossy link (drop {DROP_P:.0%}, "
          f"+{DELAY_NS / 1000:.0f} us delay on {DELAY_P:.0%}):")
    print(f"  injected faults : {report.fault_injected}")
    print(f"  client counters : {counters}")
    print(f"  client p99      : "
          f"{report.client_p99_us('memcached'):.1f} us")
    for issue in report.uncontained:
        print(f"  UNCONTAINED: {issue}")
    print(f"  containment     : {sum(report.fault_injected.values())} "
          f"injected packet faults, {len(report.uncontained)} uncontained")
    return {"points": points, "lossy": report}
