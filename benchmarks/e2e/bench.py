"""Run the end-to-end benchmark and report its metrics.

From the repository root::

    python -m benchmarks.e2e                        # all workloads, seed 42
    python -m benchmarks.e2e --workload colo-vessel --seed 7 --seconds 24
    python -m benchmarks.e2e --trace                # per-layer metrics

Each run of a workload is a fresh ``python -m benchmarks.e2e.child``
process, started one at a time so the numbers measure the simulator and
not the host scheduler.  Untraced runs repeat until both ``--repeat`` runs
and ``--seconds`` of measuring are done; every metric is their median.  A
traced run is one untraced child plus one child under cProfile, whose
stats land in ``benchmarks/e2e/out/<workload>.pstats`` and are folded into
layers by :mod:`benchmarks.e2e.layers`.

The last line of standard output for each workload is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import collections
import compileall
import json
import os
import platform
import pstats
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import layers
from benchmarks.e2e.child import DIGEST_FIELDS
from benchmarks.e2e.workloads import INPUT_SETS, WORKLOADS, input_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
REPRO_DIR = ROOT / "src" / "repro"
OUT_DIR = HERE / "out"
PINS = HERE / "pins.json"
#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen
    bound: Optional[float] = None


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_cpu_norm", "x", "lower", 0.15),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("sim_app_frac", "fraction", "higher", 0.02),
)
#: printed and saved beside the end-to-end metrics, never gated: raw host
#: times drift with the host, and bursty traffic moves latency percentiles
#: too much from seed to seed to bound
DIAGNOSTIC = (
    Metric("run_cpu_s", "s", "lower"),
    Metric("run_wall_s", "s", "lower"),
    Metric("ref_cpu_s", "s", "lower"),
    Metric("sim_p50_us", "us", "lower"),
    Metric("sim_p99_us", "us", "lower"),
    Metric("sim_p999_us", "us", "lower"),
    Metric("sim_requests", "count", "higher"),
    Metric("sim_tput_mops", "Mops/s", "higher"),
)
PER_LAYER = tuple(
    metric
    for layer in layers.LAYERS
    for metric in (Metric(f"{layer}.share", "fraction", "lower"),
                   Metric(f"{layer}.calls", "count", "lower"))
) + (
    Metric("trace.self_s", "s", "lower"),
    Metric("trace.overhead", "x", "lower"),
    Metric("sim.events", "count", "lower"),
    Metric("sim.cpu_ns_per_event", "ns", "lower"),
    Metric("sim.run_s", "s", "lower"),
    Metric("experiments.assembly_s", "s", "lower"),
    Metric("sim.summarize_s", "s", "lower"),
    Metric("obs.hist_build_s", "s", "lower"),
    Metric("sim.stats_records", "count", "lower"),
    Metric("sched.begin_service_calls", "count", "lower"),
    Metric("net.retries", "count", "lower"),
    Metric("net.losses", "count", "lower"),
    Metric("net.unserved_frac", "fraction", "lower"),
    Metric("overload.shed", "count", "lower"),
    Metric("faults.injected", "count", "lower"),
    Metric("faults.uncontained", "count", "lower"),
)


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int,
              profile: Optional[Path] = None) -> Dict:
    """One child run; its record, or ``{"error": ...}`` when it failed."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
               # numpy must not fan out threads beside the simulator
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "benchmarks.e2e.child",
           "--workload", workload, "--seed", str(seed)]
    if profile is not None:
        cmd += ["--profile", str(profile)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S}s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail)}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_pins() -> Dict:
    with open(PINS) as handle:
        return json.load(handle)


def digest_failures(records: Sequence[Dict], pinned: Dict
                    ) -> List[Tuple[int, str]]:
    """Runs whose simulated results differ from the pin of their input
    seed or, for an unpinned seed, from the most common result among the
    runs of that seed, with the fields that differ."""
    reference: Dict[int, Tuple[Dict, str]] = {}
    for seed in {r["seed"] for r in records}:
        pin = pinned.get(str(seed))
        if pin is not None:
            reference[seed] = (pin, f"the seed-{seed} pin")
            continue
        same = [r for r in records if r["seed"] == seed]
        digest = collections.Counter(
            r["digest"] for r in same).most_common(1)[0][0]
        reference[seed] = (next(r["fields"] for r in same
                                if r["digest"] == digest),
                           f"the other seed-{seed} runs")
    out = []
    for index, record in enumerate(records):
        fields, source = reference[record["seed"]]
        differ = [name for name in DIGEST_FIELDS
                  if record["fields"][name] != fields[name]]
        if differ:
            out.append((index, f"{', '.join(differ)} differ from {source}"))
    return out


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def summarize(values: Sequence[float]) -> Dict:
    """Median, quartiles and count of ``values``."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def untraced_values(record: Dict) -> Dict[str, float]:
    """The end-to-end and diagnostic values of one untraced run."""
    values = {name: record[name]
              for name in ("setup_s", "run_cpu_norm", "run_cpu_s",
                           "run_wall_s", "ref_cpu_s", "peak_rss_mb")}
    values.update(record["sim"])
    return values


def traced_values(untraced: Dict, traced: Dict,
                  folded: layers.Fold) -> Dict[str, float]:
    """The per-layer values of one traced run."""
    values: Dict[str, float] = {}
    for layer in layers.LAYERS:
        values[f"{layer}.share"] = folded.share(layer)
        values[f"{layer}.calls"] = folded.calls.get(layer, 0)
    sim_run = folded.cum_s.get(layers.SIM_RUN, 0.0)
    values.update(untraced["counters"])
    values.update({
        "trace.self_s": folded.total_s,
        "trace.overhead": traced["run_cpu_norm"] / untraced["run_cpu_norm"],
        "sim.cpu_ns_per_event":
            untraced["run_cpu_s"] * 1e9 / untraced["counters"]["sim.events"],
        "sim.run_s": sim_run,
        "experiments.assembly_s":
            folded.cum_s.get(layers.RUN_COLOCATION, 0.0) - sim_run,
        "sim.summarize_s": folded.cum_s.get(layers.SUMMARIZE, 0.0),
        "obs.hist_build_s": folded.cum_s.get(layers.HIST_BUILD, 0.0),
        "sim.stats_records": folded.ncalls.get(layers.STATS_RECORD, 0),
        "sched.begin_service_calls":
            folded.ncalls.get(layers.BEGIN_SERVICE, 0),
    })
    return values


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, rounds: int,
            trace: bool, pins: Dict) -> Dict:
    """Run ``workload`` and return its full result record.

    Untraced, children cycle through the seed's input sets until
    ``rounds`` full rounds and ``seconds`` have passed; from two rounds on,
    every input set runs at least twice and its digests can be compared.
    Traced, input set 0 runs once untraced and once under cProfile.
    """
    seeds = [input_seed(seed, i) for i in range(INPUT_SETS)]
    runs: List[Dict] = []
    run_seeds: List[int] = []
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        profile = OUT_DIR / f"{workload}.pstats"
        run_seeds = [seeds[0], seeds[0]]
        runs.append(run_child(workload, seeds[0]))
        runs.append(run_child(workload, seeds[0], profile=profile))
    else:
        started = time.perf_counter()
        while len(runs) < rounds * INPUT_SETS \
                or time.perf_counter() - started < seconds:
            run_seeds.append(seeds[len(runs) % INPUT_SETS])
            runs.append(run_child(workload, run_seeds[-1]))
    failures = [(i, r["error"]) for i, r in enumerate(runs) if "error" in r]
    ok = [(i, r) for i, r in enumerate(runs) if "error" not in r]
    records = [r for _, r in ok]
    failures += [(ok[j][0], message) for j, message in
                 digest_failures(records, pins.get(workload, {}))]
    failures += [(i, problem) for i, r in ok for problem in r["problems"]]
    result = {"workload": workload, "seed": seed,
              "mode": "traced" if trace else "untraced",
              "attempted": len(runs),
              "failed": len({index for index, _ in failures}),
              "failures": [f"run {index} (seed "
                           f"{run_seeds[index]}): {message}"
                           for index, message in sorted(failures)],
              "runs": runs, "metrics": {}}
    if trace and len(records) == 2:
        folded = layers.fold(pstats.Stats(str(profile)).stats,
                             str(REPRO_DIR))
        result["layer_table"] = layers.table(folded)
        values = traced_values(records[0], records[1], folded)
        result["metrics"] = {m.name: {"value": values[m.name],
                                      "unit": m.unit}
                             for m in PER_LAYER}
    elif not trace and records:
        samples = [untraced_values(r) for r in records]
        for metric in END_TO_END + DIAGNOSTIC:
            result["metrics"][metric.name] = dict(
                summarize([s[metric.name] for s in samples]),
                unit=metric.unit)
    return result


def contract_line(result: Dict, names: Sequence[str]) -> str:
    """The one-line JSON result for ``names``."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name]["value"],
                           "unit": result["metrics"][name]["unit"]}
                    for name in names},
    })


def format_result(result: Dict) -> str:
    """Human-readable table of one workload's result."""
    lines = [f"== {result['workload']} (seed {result['seed']}, "
             f"{result['mode']}, {result['attempted']} runs, "
             f"{result['failed']} failed)"]
    lines += [f"  FAIL {line}" for line in result["failures"]]
    if "layer_table" in result:
        lines.append(result["layer_table"])
    for name, stat in result["metrics"].items():
        value = stat["value"]
        row = f"  {name:<28} {value:>14.6g} {stat['unit']:<9}"
        if "q1" in stat:
            row += f" q1 {stat['q1']:.6g}  q3 {stat['q3']:.6g}  " \
                   f"n {stat['n']}"
        lines.append(row)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end simulator benchmark (see README.md).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        action="append",
                        help="run only this workload (repeatable; "
                             "default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep starting untraced runs until this "
                             "much time has passed")
    parser.add_argument("--repeat", type=int, default=2,
                        help="at least this many untraced rounds over "
                             f"the seed's {INPUT_SETS} input sets")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer metrics from a cProfile run")
    parser.add_argument("--save", metavar="JSON", default=None,
                        help="write every run's full record here")
    parser.add_argument("--write-pins", action="store_true",
                        help="pin the simulated-result digests of this "
                             "seed's input sets (after an intended change "
                             "of results)")
    return parser.parse_args(argv)


def host() -> Dict:
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "system": platform.system()}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (REPRO_DIR / "__init__.py").is_file():
        print(f"error: no simulator sources at {REPRO_DIR}", file=sys.stderr)
        return 2
    # The first import otherwise compiles bytecode inside a timed set-up.
    compileall.compile_dir(str(REPRO_DIR), quiet=1)
    pins = load_pins()
    results = []
    for workload in args.workload or list(WORKLOADS):
        result = measure(workload, args.seed, args.seconds,
                         max(1, args.repeat), bool(args.trace), pins)
        results.append(result)
        if not result["metrics"]:
            print(format_result(result), file=sys.stderr)
            print(f"error: no result for {workload}", file=sys.stderr)
            return 1
        print(format_result(result))
        names = [m.name for m in (PER_LAYER if args.trace else END_TO_END)]
        print(contract_line(result, names), flush=True)
    if args.save:
        with open(args.save, "w") as handle:
            json.dump({"host": host(), "results": results}, handle,
                      indent=1, sort_keys=True)
            handle.write("\n")
    if args.write_pins:
        write_pins(pins, results)
    return 0


def write_pins(pins: Dict, results: Sequence[Dict]) -> None:
    """Pin the per-field digests every result's runs produced."""
    for result in results:
        pinned = pins.setdefault(result["workload"], {})
        for record in result["runs"]:
            if "error" not in record:
                pinned[str(record["seed"])] = record["fields"]
    with open(PINS, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
