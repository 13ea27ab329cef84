"""Trace-invariant audit: the flight recorder proves itself.

``python -m repro tracecheck`` runs per-request flight recording across
the systems and load paths that exercise every mark type — direct
submit, the client/link/NIC fabric, admission sheds, autoscaler
preemptions, chaos-injected packet drops/delays — and prints a row per
arm; the ``tracecheck-*`` rows of ``tests/test_claims.py`` judge the
recorder's invariants on that run instead of trusting them:

1. **audit clean** — every arm's trace-invariant audit is empty:
   marks monotonic, transitions legal, per-core service segments
   non-overlapping, per-request stage sums equal to the end-to-end
   latency, and span conservation exact against the independent
   latency recorders (client-side where a fabric ran);
2. **telescoping** — per app, the integer sum of all stage durations
   equals the integer sum of measured latencies (delta exactly 0);
3. **coverage** — across the arms, the recorder observed completions,
   sheds, *and* drops, and decomposed latency into at least the
   net_in / sched_queue / service / net_out stages (a refactor that
   silently unhooks a chokepoint fails here, not in production).

``--trace-out FILE`` makes the chaos arm write its merged
Perfetto/Chrome trace (core spans, op events, slowest-request stage
spans, gauge counter tracks) to FILE itself; no other arm writes one.

Usage::

    PYTHONPATH=src python -m repro tracecheck           # full scenario
    PYTHONPATH=src python -m repro tracecheck --smoke   # CI-sized
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.units import MS, US
from repro.faults.plan import FaultPlan
from repro.net import NetConfig
from repro.experiments import flashcrowd
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    l_capacity_mops,
    run_colocation_batch,
)
from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS


def _chaos_plan(cfg: ExperimentConfig) -> FaultPlan:
    """Packet drops + delays + Uintr drops riding through the spike."""
    spike_ns = int(0.5 * cfg.sim_ms * MS)
    return (FaultPlan(seed=cfg.seed)
            .drop_packets(0.02)
            .delay_packets(2 * US, probability=0.05, at_ns=spike_ns)
            .drop_uintr(0.05, at_ns=spike_ns))


def arms(cfg: ExperimentConfig) -> List:
    """(label, system, cfg, run_colocation kwargs) rows.

    Every arm records flights; together they cross direct vs fabric
    delivery, all marks (admit/shed/preempt/ingress), and chaos.
    """
    base_rate = flashcrowd.BASE_LOAD * l_capacity_mops(
        cfg, MEMCACHED_MEAN_SERVICE_NS)
    trace = flashcrowd.flash_crowd_trace(cfg.sim_ms,
                                         flashcrowd.SPIKE_FACTOR)
    # Only the chaos arm writes a trace, to ``cfg.trace_out`` itself,
    # so no arm inherits ``cfg.trace_out``.
    flight_cfg = cfg.scaled(trace_out=None, latency_breakdown=True,
                            trace_requests=max(cfg.trace_requests, 2))
    return [
        # Direct submit: submit/run_start/preempt/complete marks, the
        # silo heavy-tail triggers VESSEL's long-request preemption.
        ("vessel-direct", "vessel",
         flight_cfg.scaled(net=None),
         dict(l_specs=[("memcached", "mc", 1.5), ("silo", "silo", 0.05)],
              b_specs=("linpack",))),
        # The protected flash-crowd arm under chaos: ingress/admit/shed
        # marks, autoscaler cap preemptions, packet drops and delays.
        ("vessel-net-chaos", "vessel",
         flight_cfg.scaled(net=flashcrowd.hardened_net(cfg.net),
                           policy="autoscale",
                           policy_params={"slo_p99_us":
                                          flashcrowd.SLO_P99_US}),
         dict(l_specs=[("memcached", "mc", base_rate)],
              b_specs=("linpack",), trace=trace,
              admission=flashcrowd.admission_for(cfg),
              fault_plan=_chaos_plan(cfg), track_queues=True,
              trace_file=cfg.trace_out)),
        # A baseline over the plain fabric: Caladan's reallocation
        # preemptions and the NIC-ring stage without admission control.
        ("caladan-net", "caladan",
         flight_cfg.scaled(net=cfg.net or NetConfig()),
         dict(l_specs=[("memcached", "mc", base_rate)],
              b_specs=("linpack",))),
        # The kernel-scheduler comparator, direct submit (core-less
        # service segments must not trip the overlap audit).
        ("linux-cfs-direct", "linux-cfs",
         flight_cfg.scaled(net=None),
         dict(l_specs=[("memcached", "mc", 0.5)],
              b_specs=("linpack",))),
    ]


def run(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = cfg or ExperimentConfig()
    rows = arms(cfg)
    reports = run_colocation_batch(
        [(system, arm_cfg, kwargs)
         for _, system, arm_cfg, kwargs in rows],
        jobs=cfg.jobs)
    return {"arms": [(label, report)
                     for (label, _, _, _), report in zip(rows, reports)]}


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = cfg or ExperimentConfig()
    results = run(cfg)

    print("\nTrace-invariant audit:")
    rows = []
    for label, report in results["arms"]:
        outcomes: Dict[str, int] = {}
        for per_app in report.flight_counts.values():
            for outcome, count in per_app.items():
                outcomes[outcome] = outcomes.get(outcome, 0) + count
        delta = sum(abs(summary["stage_sum_ns"] - summary["total_sum_ns"])
                    for summary in report.latency_stages.values())
        rows.append([label, outcomes.get("done", 0),
                     outcomes.get("shed", 0), outcomes.get("drop", 0),
                     outcomes.get("dup", 0), delta,
                     len(report.flight_audit)])
    print(format_table(
        ["arm", "done", "shed", "drop", "dup", "stage delta ns",
         "violations"], rows))
    return results
