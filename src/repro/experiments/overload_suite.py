"""The overload suite: flash crowd, then chaos through the spike.

``python -m repro overload`` is the closed-loop robustness demo.  It
prints the flash-crowd comparison and then runs the protected arm once
more under chaos; the ``overload-*`` rows of ``tests/test_claims.py``
judge the graceful-degradation claims on that run:

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

Usage::

    PYTHONPATH=src python -m repro overload
    PYTHONPATH=src python -m repro overload --smoke
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.units import MS, US
from repro.faults.plan import FaultPlan
from repro.experiments import flashcrowd
from repro.experiments.common import (
    ExperimentConfig,
    l_capacity_mops,
    run_colocation,
)
from repro.experiments.flashcrowd import SLO_P99_US
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
    results = flashcrowd.main(cfg)
    print("\nFaults x overload: Uintr drops + packet delays through the "
          "spike, protected arm")
    report = chaos_run(cfg)
    print(f"  injected: {report.fault_injected}")
    return {"flashcrowd": results, "chaos": report}
