"""Network smoke: client-observed latency through the simulated fabric.

This is the ``--net`` counterpart of the chaos gate: a short colocation
sweep where load is delivered by simulated client machines over the
100 Gbps link and multi-queue NIC instead of direct submission, plus a
lossy-link run with injected packet drops/delays.  It exits non-zero if

* any load point reports a zero (or NaN) client-observed P99,
* client-observed P99 falls below server-side P99 anywhere (the network
  path can only add latency), or
* any injected packet fault escapes containment.

Usage::

    PYTHONPATH=src python -m repro net
    PYTHONPATH=src python -m repro net --op-breakdown
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    l_capacity_mops,
    run_colocation,
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


def main(cfg: Optional[ExperimentConfig] = None) -> None:
    cfg = cfg or ExperimentConfig()
    if cfg.net is None:
        cfg = cfg.scaled(net=NetConfig())
    capacity = l_capacity_mops(cfg, MEMCACHED_MEAN_SERVICE_NS)

    rows = []
    violations: List[str] = []
    for system in SYSTEMS:
        for load in LOADS:
            report = run_colocation(
                system, cfg,
                l_specs=[("memcached", "memcached", load * capacity)],
                b_specs=("linpack",))
            server_p99 = report.latency["memcached"]["p99_us"]
            client_p99 = report.client_p99_us("memcached")
            counters = report.net_ops["memcached"]
            rows.append([system, load,
                         f"{server_p99:.1f}", f"{client_p99:.1f}",
                         counters["offered"], counters["completed"],
                         counters["retries"], counters["losses"]])
            if not client_p99 > 0 or math.isnan(client_p99):
                violations.append(
                    f"{system} @ {load}: client P99 not positive "
                    f"({client_p99})")
            if not client_p99 >= server_p99:
                violations.append(
                    f"{system} @ {load}: client P99 {client_p99:.2f} us "
                    f"< server P99 {server_p99:.2f} us")
    print("Client-observed vs server-side tail latency "
          "(memcached + linpack over the simulated fabric):")
    print(format_table(
        ["system", "load", "server p99 us", "client p99 us", "offered",
         "completed", "retries", "losses"], rows))

    # ---- lossy link: packet drops/delays must stay contained ----------
    plan = (FaultPlan(seed=cfg.seed)
            .drop_packets(DROP_P, at_ns=cfg.warmup_ms * MS)
            .delay_packets(DELAY_NS, probability=DELAY_P,
                           at_ns=cfg.warmup_ms * MS))
    report = run_colocation(
        "vessel", cfg,
        l_specs=[("memcached", "memcached", LOADS[-1] * capacity)],
        b_specs=("linpack",), fault_plan=plan)
    counters = report.net_ops["memcached"]
    injected = sum(report.fault_injected.values())
    print(f"\nLossy link (drop {DROP_P:.0%}, "
          f"+{DELAY_NS / 1000:.0f} us delay on {DELAY_P:.0%}):")
    print(f"  injected faults : {report.fault_injected}")
    print(f"  client counters : {counters}")
    print(f"  client p99      : "
          f"{report.client_p99_us('memcached'):.1f} us")
    if injected == 0:
        violations.append("lossy-link run injected no packet faults")
    if counters["retries"] == 0:
        violations.append("clients never retried despite injected drops")
    for issue in report.uncontained:
        violations.append(f"UNCONTAINED: {issue}")
    if violations:
        for violation in violations:
            print(f"  FAIL: {violation}")
        raise RuntimeError(
            f"{len(violations)} network smoke check(s) failed")
    print(f"  containment     : all {injected} injected "
          "packet faults contained; client-observed P99 >= server P99 "
          "at every load point")
