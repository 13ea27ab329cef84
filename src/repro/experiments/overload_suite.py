"""The overload acceptance suite: flash crowd + chaos, with hard gates.

``python -m repro overload`` is the closed-loop robustness demo and CI
gate in one.  It runs the flash-crowd comparison and then *asserts* the
graceful-degradation claims instead of just printing them:

1. **SLO hold** — the protected arm (VESSEL + autoscaler + admission +
   hardened clients) keeps admitted-request client p99 within the
   200 µs budget through a 10x spike, while shedding the excess;
2. **baseline collapse** — at least one unprotected baseline exhibits
   unbounded queue growth or a retry-storm through the same trace;
3. **faults × overload** — the same protected arm re-runs with a chaos
   plan (Uintr drops + packet delays) active through the spike; the
   containment audit must come back empty and the request-conservation
   ledger must balance exactly (offered == completed + losses +
   in-flight for every app — shed attempts retry or convert to counted
   losses, never vanish).

Any violated gate raises ``RuntimeError`` (non-zero exit), which is
what the CI job keys on.

Usage::

    PYTHONPATH=src python -m repro overload
    PYTHONPATH=src python -m repro overload --smoke
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.units import MS, US
from repro.faults.plan import FaultPlan
from repro.experiments import flashcrowd
from repro.experiments.common import (
    ExperimentConfig,
    check_gate,
    l_capacity_mops,
    run_colocation,
)
from repro.experiments.flashcrowd import FLAGSHIP, SLO_P99_US
from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS


def chaos_run(cfg: ExperimentConfig):
    """The protected flash-crowd arm with a chaos plan riding along.

    ``warmup_ms=0`` so the conservation identity is exact: the
    in-flight gauge is never reset, and every request offered in the
    window either completed, was counted lost, or is still in flight at
    the horizon.
    """
    cfg = cfg.scaled(warmup_ms=0,
                     net=flashcrowd.hardened_net(cfg.net),
                     policy="autoscale",
                     policy_params={"slo_p99_us": SLO_P99_US})
    spike_ns = int(0.5 * cfg.sim_ms * MS)
    plan = (FaultPlan(seed=cfg.seed)
            .drop_uintr(0.05, at_ns=spike_ns)
            .delay_packets(2 * US, probability=0.05, at_ns=spike_ns))
    base_rate = flashcrowd.BASE_LOAD * l_capacity_mops(
        cfg, MEMCACHED_MEAN_SERVICE_NS)
    return run_colocation(
        "vessel", cfg,
        l_specs=[("memcached", "mc", base_rate)],
        b_specs=("linpack",),
        admission=flashcrowd.admission_for(cfg),
        trace=flashcrowd.flash_crowd_trace(cfg.sim_ms,
                                           flashcrowd.SPIKE_FACTOR),
        fault_plan=plan,
        track_queues=True)


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = cfg or ExperimentConfig()
    failures: List[str] = []

    # ---- part 1+2: the flash-crowd comparison and its gates -----------
    results = flashcrowd.main(cfg)
    arms = dict(results["arms"])
    flagship = arms[FLAGSHIP]
    print("\nGates:")
    p99 = flagship.client_p99_us("mc")
    shed = flagship.net_ops.get("mc", {}).get("sheds", 0)
    check_gate(p99 <= SLO_P99_US,
               f"{FLAGSHIP} admitted-request p99 {p99:.1f} us within the "
               f"{SLO_P99_US:.0f} us SLO", failures)
    check_gate(shed > 0, f"{FLAGSHIP} shed the excess ({shed} rejections)",
               failures)
    flag_peak = max(flagship.queue_peak.values(), default=0)
    collapse = []
    for label, report in results["arms"]:
        if label == FLAGSHIP:
            continue
        peak = max(report.queue_peak.values(), default=0)
        retries = report.net_ops.get("mc", {}).get("retries", 0)
        flag_retries = flagship.net_ops.get("mc", {}).get("retries", 0)
        if peak > 5 * max(1, flag_peak) or retries > 5 * (flag_retries + 1):
            collapse.append(f"{label} (q peak {peak}, retries {retries})")
    check_gate(bool(collapse),
               "unprotected baseline collapses under the same trace: "
               + (", ".join(collapse) or "none"), failures)

    # ---- part 3: chaos during the spike -------------------------------
    print("\nFaults x overload: Uintr drops + packet delays through the "
          "spike, protected arm")
    report = chaos_run(cfg)
    print(f"  injected: {report.fault_injected}")
    check_gate(sum(report.fault_injected.values()) > 0,
               "chaos plan actually fired during the spike", failures)
    check_gate(not report.uncontained,
               "containment audit empty under overload + chaos "
               + (f"(violations: {report.uncontained})"
                  if report.uncontained else ""), failures)
    imbalance = {name: row["balance"]
                 for name, row in report.net_conservation.items()
                 if row["balance"] != 0}
    check_gate(not imbalance,
               "request conservation exact: offered == completed + losses "
               "+ in-flight" + (f" (imbalance: {imbalance})"
                                if imbalance else ""), failures)
    fabric_sheds = report.net_ops.get("mc", {}).get("sheds", 0)
    admitted_sheds = sum(sum(per.values()) for per in
                         report.admission.get("shed", {}).values())
    check_gate(fabric_sheds == admitted_sheds,
               f"shed accounting consistent across layers "
               f"(fabric {fabric_sheds} == admission {admitted_sheds})",
               failures)

    if failures:
        raise RuntimeError(
            f"{len(failures)} overload gate(s) failed: {failures}")
    print("\nAll overload gates passed.")
    return {"flashcrowd": results, "chaos": report}
