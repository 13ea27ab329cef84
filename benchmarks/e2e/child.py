"""One run of one workload: set-up, the measured simulation, its checks.

The parent (``bench.py``) starts this module in a fresh interpreter per
run, so every run pays its own imports and ``ru_maxrss`` is that run's
peak.  It prints one JSON object on stdout::

    python -m benchmarks.e2e.child --workload colo-vessel --seed 42 \
        [--profile out/colo-vessel.pstats]

:func:`run` does the same work in-process; the tests call it.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import heapq
import json
import os
import random
import resource
import sys
import time
from typing import Dict, List, Optional

#: SystemReport fields whose values are the simulated results.  Left out on
#: purpose: ``events_fired``, ``queue_wait``, the histograms, gauges and
#: slow traces, which representation and engine refactors may change
#: without changing a result.
DIGEST_FIELDS = ("latency", "completed", "useful_ns", "buckets",
                 "client_latency", "net_ops", "admission", "fault_injected",
                 "uncontained", "flight_counts", "flight_audit")


def reference_cpu_s() -> float:
    """CPU seconds (about 0.2 s) of a fixed loop over the simulator's
    hottest stdlib operations (heap, random, dict).  The host's speed
    drifts by tens of percent over minutes; timed next to each measured
    run, this loop drifts with it, and the ratio of the two far less."""
    rng = random.Random(1)
    heap: List = []
    table: Dict[int, float] = {}
    start = time.process_time()
    for index in range(350_000):
        heapq.heappush(heap, (rng.random(), index))
        if len(heap) > 64:
            key, popped = heapq.heappop(heap)
            table[popped & 1023] = key
    return time.process_time() - start


def _canonical(value) -> str:
    # json writes floats with repr, which round-trips every bit.
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def field_digests(report) -> Dict[str, str]:
    """Leading 16 hex digits of the sha256 of each digested report field,
    in canonical JSON."""
    return {name: hashlib.sha256(
                _canonical(getattr(report, name)).encode()).hexdigest()[:16]
            for name in DIGEST_FIELDS}


def combined_digest(fields: Dict[str, str]) -> str:
    """One sha256 over the per-field digests."""
    return hashlib.sha256(_canonical(fields).encode()).hexdigest()


def sim_metrics(report, workload) -> Dict[str, float]:
    """Simulated results of the served L-app: latency percentiles (client-
    observed when the workload runs over the network), throughput and the
    paper's colocation efficiency."""
    from benchmarks.e2e.workloads import APP
    source = report.client_latency if workload.client_latency \
        else report.latency
    summary = source[APP]
    return {
        "sim_p50_us": summary["p50_us"],
        "sim_p99_us": summary["p99_us"],
        "sim_p999_us": summary["p999_us"],
        "sim_requests": summary["count"],
        "sim_tput_mops": report.throughput_mops(APP),
        "sim_app_frac": report.app_fraction(),
    }


def counters(report) -> Dict[str, float]:
    """Events fired, and failed and retried work, as the report counts
    them."""
    net = list(report.net_ops.values())
    offered = sum(ops["offered"] for ops in net)
    done = sum(ops["completed"] for ops in net)
    shed = report.admission.get("shed", {})
    return {
        "sim.events": report.events_fired,
        "net.retries": sum(ops["retries"] for ops in net),
        "net.losses": sum(ops["losses"] for ops in net),
        "net.unserved_frac": 1.0 - done / offered if offered else 0.0,
        "overload.shed": sum(sum(per.values()) for per in shed.values()),
        "faults.injected": sum(report.fault_injected.values()),
        "faults.uncontained": len(report.uncontained),
    }


def problems(report, workload) -> List[str]:
    """Invariants every workload's report must satisfy."""
    from benchmarks.e2e.workloads import APP
    found = [f"flight audit: {line}" for line in report.flight_audit]
    found += [f"uncontained fault: {line}" for line in report.uncontained]
    for name, check in sorted(report.net_conservation.items()):
        if check.get("balance", 0) != 0:
            found.append(f"{name}: net conservation balance "
                         f"{check['balance']}")
    if sim_metrics(report, workload)["sim_requests"] == 0 \
            or report.completed.get(APP, 0) == 0:
        found.append(f"{APP}: no completed requests")
    return found


def run(name: str, seed: int, sim_ms: Optional[int] = None,
        profiler: Optional[cProfile.Profile] = None) -> Dict:
    """Set up and run workload ``name``; returns the run's record.

    Set-up is importing ``repro``, building the inputs, and a zero-length
    twin of the run (system construction plus empty report assembly).
    ``profiler``, when given, is enabled around the measured run only.
    """
    t0 = time.perf_counter()
    from benchmarks.e2e.workloads import WORKLOADS, build
    from repro.experiments.common import run_colocation
    workload = WORKLOADS[name]
    inputs = build(name, seed, sim_ms)
    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        run_colocation(inputs.system,
                       inputs.cfg.scaled(sim_ms=0, warmup_ms=0),
                       **inputs.kwargs)
        setup_s = time.perf_counter() - t0
        ref_before = reference_cpu_s()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if profiler is not None:
            profiler.enable()
        report = run_colocation(inputs.system, inputs.cfg, **inputs.kwargs)
        if profiler is not None:
            profiler.disable()
        cpu_s = time.process_time() - cpu0
        wall_s = time.perf_counter() - wall0
        ref_cpu_s = (ref_before + reference_cpu_s()) / 2
    fields = field_digests(report)
    return {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "run_cpu_s": cpu_s,
        "run_cpu_norm": cpu_s / ref_cpu_s,
        "ref_cpu_s": ref_cpu_s,
        "run_wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": sim_metrics(report, workload),
        "counters": counters(report),
        "problems": problems(report, workload),
        "digest": combined_digest(fields),
        "fields": fields,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", metavar="PSTATS", default=None,
                        help="run the measured simulation under cProfile "
                             "and write its stats here")
    args = parser.parse_args(argv)
    profiler = cProfile.Profile() if args.profile else None
    record = run(args.workload, args.seed, profiler=profiler)
    if profiler is not None:
        profiler.dump_stats(args.profile)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
