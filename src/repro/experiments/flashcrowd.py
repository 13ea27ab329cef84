"""Flash crowd: a 10x diurnal load spike against a colocated server.

The offered load follows a trace (calm morning, buildup, a 10x flash
crowd through the middle of the run, slow decay).  At the spike the
clients offer ~2.5x the machine's capacity, so *something* has to give;
the experiment compares what gives:

* **vessel+overload** — VESSEL under the SLO autoscaler policy, with
  admission control shedding above the watermarks and hardened clients
  (exponential backoff + retry budget).  Excess load is rejected at the
  NIC; admitted requests keep a bounded p99; clients back off.
* **vessel** (plain), **caladan**, **linux-cfs** — no admission, no
  backoff hardening: the queue absorbs the whole crowd, latency grows
  with the backlog, and after ``timeout_ns`` every unanswered request
  is retransmitted into the congestion (the retry storm).

The signature of graceful degradation vs collapse is in the queue
columns: the protected arm's peak queue stays at the admission
watermark and drains by the end of the run; the unprotected arms' peaks
track the whole crowd and are still draining at the horizon.

``python -m repro overload`` prints this table, and its ``overload-*``
claim rows judge it; this module has no command of its own.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.sim.units import US
from repro.net import NetConfig
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    l_capacity_mops,
    run_colocation_batch,
)
from repro.overload.admission import AdmissionConfig
from repro.overload.trace import flash_crowd_trace
from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS

#: p99 budget for the protected arm (client-observed, admitted requests)
SLO_P99_US = 200.0
#: baseline offered load as a fraction of capacity (spike multiplies it)
BASE_LOAD = 0.25
#: the flash crowd's peak multiplier
SPIKE_FACTOR = 10.0

FLAGSHIP = "vessel+overload"


def hardened_net(net: Optional[NetConfig]) -> NetConfig:
    """Client-side overload hardening: exponential backoff with seeded
    jitter, and a retry budget that converts storms into suppressions."""
    return replace(net or NetConfig(),
                   backoff_base_ns=20 * US, backoff_jitter=0.5,
                   retry_budget=0.1)


def admission_for(cfg: ExperimentConfig) -> AdmissionConfig:
    """Watermarks sized to the machine: the queue cap is ~16 requests
    per worker (≈16 µs of backlog each), the age cap under the SLO."""
    return AdmissionConfig(max_queue_depth=16 * cfg.num_workers,
                           max_oldest_wait_ns=150 * US)


def run(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = cfg or ExperimentConfig()
    base_rate = BASE_LOAD * l_capacity_mops(cfg, MEMCACHED_MEAN_SERVICE_NS)
    trace = flash_crowd_trace(cfg.sim_ms, SPIKE_FACTOR)
    l_specs = [("memcached", "mc", base_rate)]
    plain_net = cfg.net or NetConfig()
    common = dict(l_specs=l_specs, b_specs=("linpack",), trace=trace,
                  track_queues=True)
    tasks = [
        (FLAGSHIP, "vessel",
         cfg.scaled(net=hardened_net(cfg.net), policy="autoscale",
                    policy_params={"slo_p99_us": SLO_P99_US}),
         dict(common, admission=admission_for(cfg))),
        ("vessel", "vessel", cfg.scaled(net=plain_net), dict(common)),
        ("caladan", "caladan", cfg.scaled(net=plain_net), dict(common)),
        ("linux-cfs", "linux-cfs", cfg.scaled(net=plain_net), dict(common)),
    ]
    reports = run_colocation_batch(
        [(system, arm_cfg, kwargs) for _, system, arm_cfg, kwargs in tasks],
        jobs=cfg.jobs)
    return {
        "arms": [(label, report)
                 for (label, _, _, _), report in zip(tasks, reports)],
        "base_rate": base_rate,
    }


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    results = run(cfg)
    cfg = cfg or ExperimentConfig()
    print(f"Flash crowd: memcached + linpack, {SPIKE_FACTOR:.0f}x spike "
          f"over a {results['base_rate']:.2f} Mops/s baseline "
          f"(peak ≈ {SPIKE_FACTOR * BASE_LOAD:.1f}x capacity)")
    rows: List[List] = []
    for label, report in results["arms"]:
        ops = report.net_ops.get("mc", {})
        rows.append([
            label,
            round(report.client_p99_us("mc"), 1),
            report.completed.get("mc", 0),
            ops.get("sheds", 0),
            ops.get("retries", 0),
            ops.get("retries_suppressed", 0),
            ops.get("losses", 0),
            report.queue_peak.get("mc", 0),
            report.queue_final.get("mc", 0),
        ])
    print(format_table(
        ["arm", "cli P99 us", "done", "shed", "retry", "suppr",
         "lost", "q peak", "q end"], rows))
    flagship = results["arms"][0][1]
    if flagship.autoscale:
        a = flagship.autoscale
        print(f"autoscaler: {a['harvests']} harvests / {a['returns']} "
              f"returns, BE cap {a['be_allowed']}/{a['total_cores']} at "
              f"the horizon")
    print("(bounded 'q peak' + drained 'q end' = graceful degradation; "
          "a peak tracking the whole crowd = collapse into the backlog)")
    return results
