"""Wall-clock benchmark harness (``python -m repro bench``).

The simulator's own throughput is a first-class system property: every
experiment sweep, CI gate, and ``--scale paper`` run is bounded by how
many discrete events per second the engine can retire.  This harness
pins that number down so optimizations are measured, not guessed, and
regressions fail CI instead of quietly doubling everyone's runs.

It times a fixed set of *kernels* — from a pure engine churn loop up to
full colocation runs and the whole smoke suite — over fixed seeds, and
writes ``benchmarks/results/BENCH_<date>.json``::

    {
      "kernels": {"engine-churn": {"wall_s": ..., "events": ...,
                                   "events_per_sec": ..., "normalized": ...},
                  ...},
      "suite":   {"wall_s": ..., "jobs": ..., "experiments": {...}},
      "speedup_vs_baseline": {"engine-churn": 2.1, ..., "suite": 1.8}
    }

``normalized`` is the kernel's wall time divided by the wall time of a
fixed pure-Python calibration loop run in the same process, which makes
numbers roughly comparable across machines; ``--check`` compares those
normalized values against a recorded run and exits non-zero on a
regression beyond ``--tolerance`` (default 25 %), which is what the CI
bench job does.  ``speedup_vs_baseline`` always compares raw wall
seconds against ``BENCH_baseline.json`` — the recorded pre-optimization
trajectory point.
"""

from __future__ import annotations

import argparse
import datetime
import glob
import io
import json
import os
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))),
    "benchmarks", "results")
BASELINE_NAME = "BENCH_baseline.json"

#: experiments timed by the full-suite kernel (the `python -m repro`
#: smoke set, in its canonical order)
SUITE_EXPERIMENTS: Optional[List[str]] = None  # None == all


# ----------------------------------------------------------------------
# Kernels.  Each returns (unit_count, unit_name); wall time is measured
# around the call.  Seeds are fixed so runs are comparable.
# ----------------------------------------------------------------------
def _kernel_engine_churn(seed: int) -> Tuple[int, str]:
    """Pure engine throughput under scheduler-like schedule/cancel churn.

    Mimics what schedulers do to the heap: every tick schedules a
    completion event, and half the time cancels and reschedules it (the
    preempt path), so the lazy-deletion machinery is on the hot path.
    """
    from repro.sim.engine import Simulator

    sim = Simulator()
    rng = random.Random(seed)
    target = 400_000
    completion = [None]

    def done() -> None:
        completion[0] = None

    def tick() -> None:
        pending = completion[0]
        if pending is not None and rng.random() < 0.5:
            pending.cancel()
        completion[0] = sim.after(100 + rng.randrange(100), done)
        if sim.events_fired < target:
            sim.after(1 + rng.randrange(49), tick)

    sim.after(0, tick)
    sim.run()
    return sim.events_fired, "events"


def _kernel_switch_pingpong(seed: int) -> Tuple[int, str]:
    """Table 1's measured kernel: the real functional userspace switch."""
    from repro.experiments.common import ExperimentConfig
    from repro.experiments.tab1_context_switch import measure_vessel

    iterations = 20_000
    samples = measure_vessel(ExperimentConfig(seed=seed), iterations)
    return len(samples), "switches"


def _colocation(system: str, seed: int, net: bool = False) -> Tuple[int, str]:
    from repro.experiments.common import ExperimentConfig, run_colocation
    from repro.net import NetConfig

    cfg = ExperimentConfig(seed=seed, net=NetConfig() if net else None)
    report = run_colocation(
        system, cfg,
        l_specs=[("memcached", "memcached", 2.0)],
        b_specs=("linpack",))
    return report.events_fired, "events"


def _kernel_colo_vessel(seed: int) -> Tuple[int, str]:
    """One smoke-scale VESSEL colocation run (the fig09 inner kernel)."""
    return _colocation("vessel", seed)


def _kernel_policy_dispatch(seed: int) -> Tuple[int, str]:
    """colo-vessel routed through a non-default policy (mlfq).

    Prices the mechanism/policy dispatch layer: same workload as
    colo-vessel, but every quantum/placement decision goes through a
    policy subclass with its own run-queue type, so the delta against
    colo-vessel is the cost of the pluggable-policy indirection.
    """
    from repro.experiments.common import ExperimentConfig, run_colocation

    cfg = ExperimentConfig(seed=seed, policy="mlfq")
    report = run_colocation(
        "vessel", cfg,
        l_specs=[("memcached", "memcached", 2.0)],
        b_specs=("linpack",))
    return report.events_fired, "events"


def _kernel_colo_caladan(seed: int) -> Tuple[int, str]:
    """One smoke-scale Caladan colocation run (heaviest baseline)."""
    return _colocation("caladan", seed)


def _kernel_colo_net(seed: int) -> Tuple[int, str]:
    """VESSEL colocation through the client/link/NIC fabric (--net)."""
    return _colocation("vessel", seed, net=True)


def _kernel_flight_overhead(seed: int) -> Tuple[int, str]:
    """colo-net with the per-request flight recorder turned on.

    Prices the observability layer: same workload as colo-net, but every
    request carries lifecycle marks, gauges sample on a tick, and
    finalization folds stage durations into aggregates.  The delta
    against colo-net is the full cost of ``--latency-breakdown``; the
    tracing-*off* cost is priced by colo-net itself staying flat
    (hot paths only test one ``flight.enabled`` bool).
    """
    import contextlib
    import io

    from repro.experiments.common import ExperimentConfig, run_colocation
    from repro.net import NetConfig

    cfg = ExperimentConfig(seed=seed, net=NetConfig(), trace_requests=4)
    with contextlib.redirect_stdout(io.StringIO()):
        report = run_colocation(
            "vessel", cfg,
            l_specs=[("memcached", "memcached", 2.0)],
            b_specs=("linpack",))
    return report.events_fired, "events"


def _kernel_churn_cycle(seed: int) -> Tuple[int, str]:
    """uProcess create/serve/destroy cycles against a running system.

    Prices the full tenant lifecycle (SMAS slot grant, boot kProcess,
    SIGSEGV registration, a little traffic, then the §5.1 teardown) —
    the hot path of the churn/overload scenarios.
    """
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngStreams
    from repro.sim.units import US
    from repro.hardware.machine import Machine
    from repro.hardware.timing import CostModel
    from repro.vessel.scheduler import VesselSystem
    from repro.workloads.base import Request
    from repro.workloads.linpack import linpack_app
    from repro.workloads.memcached import memcached_app

    sim = Simulator()
    machine = Machine(sim, CostModel(), 3)
    rngs = RngStreams(seed)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:])
    system.add_app(linpack_app())
    system.start()
    cycles = 2_000
    for cycle in range(cycles):
        app = memcached_app(f"cycle{cycle}")
        system.add_app(app)
        for _ in range(4):
            system.submit(Request(app, sim.now, 1000, 0))
        sim.run(until=sim.now + 10 * US)
        system.remove_app(app.name)
    return cycles, "cycles"


def _kernel_cluster_lb(seed: int) -> Tuple[int, str]:
    """The fleet control plane alone: place, rebalance, harvest.

    Plans (no server simulation) a 16-server / 256-batch fleet under
    the least-loaded balancer with the coordinator on, for hundreds of
    control epochs.  Prices the serial stage every cluster run pays
    before ``--jobs`` can fan anything out: batch drawing, greedy
    migration scans, the fluid model, and cap-schedule bookkeeping.
    """
    from repro.cluster import Cluster, ClusterConfig
    from repro.experiments.common import ExperimentConfig

    cfg = ExperimentConfig(seed=seed, sim_ms=50)
    cluster = ClusterConfig(num_servers=16, batches=256,
                            lb_policy="least-loaded", hot_fraction=0.5,
                            hot_batches=8, epoch_ms=0.25,
                            coordinator=True)
    epochs = 0
    for repeat in range(4):
        plan = Cluster("vessel", cfg, cluster).plan()
        epochs += len(plan.fluid_history)
    return epochs * cluster.num_servers, "server-epochs"


KERNELS: Dict[str, Callable[[int], Tuple[int, str]]] = {
    "engine-churn": _kernel_engine_churn,
    "switch-pingpong": _kernel_switch_pingpong,
    "colo-vessel": _kernel_colo_vessel,
    "policy-dispatch": _kernel_policy_dispatch,
    "colo-caladan": _kernel_colo_caladan,
    "colo-net": _kernel_colo_net,
    "flight-overhead": _kernel_flight_overhead,
    "churn-cycle": _kernel_churn_cycle,
    "cluster-lb": _kernel_cluster_lb,
}

#: the cheap subset the CI bench job runs (fails on >25 % regression)
SMOKE_KERNELS = ("engine-churn", "switch-pingpong", "colo-vessel",
                 "policy-dispatch", "flight-overhead", "churn-cycle",
                 "cluster-lb")


def _calibrate() -> float:
    """Fixed pure-Python loop timed to normalize across machines."""
    started = time.perf_counter()
    acc = 0
    values = list(range(997))
    for i in range(2_000_000):
        acc += values[i % 997]
    if acc < 0:  # pragma: no cover - keeps the loop observable
        raise AssertionError
    return time.perf_counter() - started


def _time_suite(seed: int, jobs: int) -> Dict[str, object]:
    """Wall-clock the full smoke suite (stdout discarded)."""
    from repro.__main__ import EXPERIMENTS, run_experiments
    from repro.experiments.common import ExperimentConfig

    selected = SUITE_EXPERIMENTS or list(EXPERIMENTS)
    cfg = ExperimentConfig(seed=seed)
    sink = io.StringIO()
    started = time.perf_counter()
    timings = run_experiments(selected, cfg, jobs=jobs, stream=sink)
    wall = time.perf_counter() - started
    return {"wall_s": round(wall, 3), "jobs": jobs,
            "experiments": {k: round(v, 3) for k, v in timings.items()}}


# ----------------------------------------------------------------------
# Baseline lookup / regression check
# ----------------------------------------------------------------------
def _load(path: str) -> Optional[Dict]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def latest_record(results_dir: str = RESULTS_DIR,
                  exclude: Optional[str] = None) -> Optional[str]:
    """Newest dated BENCH_*.json (falls back to the baseline file)."""
    dated = sorted(
        p for p in glob.glob(os.path.join(results_dir, "BENCH_*.json"))
        if os.path.basename(p) != BASELINE_NAME
        and (exclude is None
             or os.path.abspath(p) != os.path.abspath(exclude)))
    if dated:
        return dated[-1]
    baseline = os.path.join(results_dir, BASELINE_NAME)
    return baseline if os.path.exists(baseline) else None


def check_regressions(current: Dict, reference: Dict,
                      tolerance: float) -> List[str]:
    """Normalized-time regressions beyond ``tolerance`` (25 % = 0.25)."""
    failures = []
    ref_kernels = reference.get("kernels", {})
    for name, row in current.get("kernels", {}).items():
        ref = ref_kernels.get(name)
        if not ref or "normalized" not in ref:
            continue
        if row["normalized"] > ref["normalized"] * (1.0 + tolerance):
            failures.append(
                f"{name}: normalized time {row['normalized']:.3f} vs "
                f"reference {ref['normalized']:.3f} "
                f"(>{tolerance:.0%} regression)")
    return failures


# ----------------------------------------------------------------------
def run_bench(kernels: List[str], seed: int, jobs: int,
              with_suite: bool) -> Dict:
    record: Dict = {
        "schema": 1,
        "date": datetime.datetime.now().isoformat(timespec="seconds"),
        "seed": seed,
        "python": sys.version.split()[0],
        "cpus": _cpu_count(),
        "kernels": {},
    }
    calibration = _calibrate()
    record["calibration_s"] = round(calibration, 4)
    for name in kernels:
        fn = KERNELS[name]
        print(f"bench: {name} ...", file=sys.stderr)
        started = time.perf_counter()
        units, unit_name = fn(seed)
        wall = time.perf_counter() - started
        record["kernels"][name] = {
            "wall_s": round(wall, 4),
            unit_name: units,
            f"{unit_name}_per_sec": round(units / wall) if wall > 0 else 0,
            "normalized": round(wall / calibration, 4),
        }
    if with_suite:
        print("bench: full smoke suite ...", file=sys.stderr)
        record["suite"] = _time_suite(seed, jobs)
    return record


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _attach_speedups(record: Dict, baseline: Dict) -> None:
    speedups: Dict[str, float] = {}
    base_kernels = baseline.get("kernels", {})
    for name, row in record["kernels"].items():
        base = base_kernels.get(name)
        if base and base.get("wall_s") and row.get("wall_s"):
            speedups[name] = round(base["wall_s"] / row["wall_s"], 2)
    if "suite" in record and baseline.get("suite", {}).get("wall_s") \
            and record["suite"].get("wall_s"):
        speedups["suite"] = round(
            baseline["suite"]["wall_s"] / record["suite"]["wall_s"], 2)
    record["speedup_vs_baseline"] = speedups


def _print_report(record: Dict) -> None:
    from repro.experiments.common import format_table

    rows = []
    speedups = record.get("speedup_vs_baseline", {})
    for name, row in record["kernels"].items():
        per_sec = next((v for k, v in row.items() if k.endswith("_per_sec")),
                       0)
        rows.append([name, row["wall_s"], per_sec,
                     row["normalized"], speedups.get(name, "-")])
    if "suite" in record:
        rows.append(["suite (smoke)", record["suite"]["wall_s"], "-", "-",
                     speedups.get("suite", "-")])
    print(format_table(
        ["kernel", "wall_s", "units/s", "normalized", "speedup-vs-base"],
        rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Time pinned simulator kernels and the smoke suite; "
                    "write BENCH_<date>.json.")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes for the suite timing")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="output JSON (default: "
                             "benchmarks/results/BENCH_<date>.json)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"only the cheap kernels "
                             f"({', '.join(SMOKE_KERNELS)}) and no "
                             f"suite timing — the CI configuration")
    parser.add_argument("--no-suite", action="store_true",
                        help="skip the full-suite wall-clock kernel")
    parser.add_argument("--check", nargs="?", const="auto", default=None,
                        metavar="FILE",
                        help="compare against a recorded BENCH json "
                             "('auto' = newest dated record) and exit "
                             "non-zero on regression")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed normalized-time regression for "
                             "--check (default 0.25 = 25%%)")
    args = parser.parse_args(argv)

    kernels = list(SMOKE_KERNELS) if args.smoke else list(KERNELS)
    with_suite = not (args.smoke or args.no_suite)
    record = run_bench(kernels, args.seed, args.jobs, with_suite)

    baseline = _load(os.path.join(RESULTS_DIR, BASELINE_NAME))
    if baseline is not None:
        _attach_speedups(record, baseline)

    output = args.output
    if output is None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        date = datetime.date.today().isoformat()
        output = os.path.join(RESULTS_DIR, f"BENCH_{date}.json")
    with open(output, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output}", file=sys.stderr)
    _print_report(record)

    if args.check is not None:
        ref_path = args.check
        if ref_path == "auto":
            ref_path = latest_record(exclude=output)
        reference = _load(ref_path) if ref_path else None
        if reference is None:
            print("bench --check: no reference record found; passing "
                  "(first run records the reference)", file=sys.stderr)
            return 0
        failures = check_regressions(record, reference, args.tolerance)
        if failures:
            print(f"bench --check vs {ref_path}: REGRESSION",
                  file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"bench --check vs {ref_path}: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
