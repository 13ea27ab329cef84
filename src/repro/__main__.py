"""Command-line entry point: regenerate the paper's evaluation.

Usage::

    python -m repro                      # run every experiment (smoke)
    python -m repro tab1 fig09           # selected experiments
    python -m repro --jobs 4             # fan experiments out over processes
    python -m repro fig09 --jobs 4       # fan one experiment's sweep out
    python -m repro --list
    python -m repro --scale paper fig09
    python -m repro churn --smoke        # the shared CI-sized profile

This is the only command-line front end: every experiment gets its
``ExperimentConfig`` from here, so a documented command means one
config.  ``--smoke`` only selects a profile: the shared CI one
(``repro.experiments.common.SMOKE_PROFILE``) plus the module's own
``SMOKE`` overrides, if it has any.  Experiments measure and print;
nothing here judges their results (``tests/test_claims.py`` does).

Parallelism policy (``--jobs N``): with several experiments selected the
experiments themselves run in worker processes (their stdout is captured
and re-printed in selection order); with a single experiment its
internal sweep points fan out instead (``ExperimentConfig.jobs``).
Either way the bytes on stdout are identical to a ``--jobs 1`` run under
the same seed — every simulation owns its Simulator and seeded RNG
streams, so only the merge order matters, and that is always task order.
Per-experiment wall-clock lines go to stderr so they never perturb the
comparable output.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import sys
import time
from dataclasses import replace
from typing import Dict, Optional, Sequence, TextIO, Tuple

EXPERIMENTS = {
    "tab1": "repro.experiments.tab1_context_switch",
    "fig01": "repro.experiments.fig01_colocation_cost",
    "fig02": "repro.experiments.fig02_dense_cost",
    "fig03": "repro.experiments.fig03_realloc_timeline",
    "fig07": "repro.experiments.fig07_timeline",
    "fig09": "repro.experiments.fig09_colocation",
    "fig10": "repro.experiments.fig10_dense",
    "fig11": "repro.experiments.fig11_cache",
    "fig12": "repro.experiments.fig12_scalability",
    "fig13": "repro.experiments.fig13_membw",
    "micro": "repro.experiments.micro_uintr",
    "chaos": "repro.experiments.fault_chaos",
    "net": "repro.experiments.net_smoke",
    "ablations": "repro.experiments.ablations",
    "policies": "repro.experiments.policy_zoo",
    "churn": "repro.experiments.churn",
    "oversub": "repro.experiments.oversub",
    "overload": "repro.experiments.overload_suite",
    "tracecheck": "repro.experiments.tracecheck",
    "cluster": "repro.experiments.cluster",
}


def _banner(name: str) -> str:
    return f"\n{'=' * 72}\n{name}  ({EXPERIMENTS[name]})\n{'=' * 72}\n"


def _run_module(name: str, cfg, smoke: bool):
    """Run one experiment's ``main`` (at its smoke profile when
    ``smoke`` is set); returns ``main``'s results."""
    module = importlib.import_module(EXPERIMENTS[name])
    if smoke:
        from repro.experiments.common import SMOKE_PROFILE
        cfg = cfg.scaled(**{**SMOKE_PROFILE, **getattr(module, "SMOKE", {})})
    return module.main(cfg)


def _run_one_captured(task: Tuple[str, object, bool]) -> Tuple[str, str, float]:
    """Pool worker: run one experiment with stdout captured."""
    name, cfg, smoke = task
    buffer = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        _run_module(name, cfg, smoke)
    return name, buffer.getvalue(), time.perf_counter() - started


def run_experiments(selected: Sequence[str], cfg, jobs: int = 1,
                    stream: Optional[TextIO] = None,
                    smoke: bool = False) -> Dict[str, float]:
    """Run experiment modules; returns per-experiment wall seconds.

    Output goes to ``stream`` (default: the real stdout).  With
    ``jobs > 1`` and several experiments, each runs in a worker process
    and its captured stdout is re-printed in selection order; with a
    single experiment, ``cfg.jobs`` is raised instead so the
    experiment's internal sweep fans out.  Both paths produce the same
    bytes as a serial run.
    """
    from repro.perf.parallel import parallel_map

    out = stream if stream is not None else sys.stdout
    timings: Dict[str, float] = {}
    if jobs > 1 and len(selected) > 1:
        worker_cfg = replace(cfg, jobs=1)
        tasks = [(name, worker_cfg, smoke) for name in selected]
        for name, text, took in parallel_map(_run_one_captured, tasks, jobs):
            out.write(_banner(name))
            out.write(text)
            timings[name] = took
    else:
        if jobs > 1:
            cfg = replace(cfg, jobs=jobs)
        for name in selected:
            out.write(_banner(name))
            out.flush()
            started = time.perf_counter()
            with contextlib.redirect_stdout(out):
                _run_module(name, cfg, smoke)
            timings[name] = time.perf_counter() - started
    return timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the uProcess/VESSEL evaluation "
                    "(SOSP 2024).")
    parser.add_argument("experiments", nargs="*",
                        help=f"subset of: {', '.join(EXPERIMENTS)}")
    parser.add_argument("--list", action="store_true",
                        help="list experiments and exit")
    parser.add_argument("--scale", choices=["smoke", "paper"],
                        default="smoke")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized profile (4 workers, 8 ms, plus "
                             "the experiment's own overrides)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="fan independent experiments (or one "
                             "experiment's sweep points) out over N "
                             "worker processes; output stays "
                             "byte-identical to --jobs 1")
    parser.add_argument("--op-breakdown", action="store_true",
                        help="print a per-operation cost breakdown "
                             "(count / total ns / percentiles) after "
                             "each run")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write each run's Chrome trace_event JSON "
                             "(chrome://tracing, Perfetto) to a file of "
                             "its own, FILE with the run's system and a "
                             "digest of its settings before the suffix "
                             "(tracecheck writes its one trace to FILE)")
    parser.add_argument("--net", action="store_true",
                        help="deliver load through the simulated "
                             "client/link/NIC fabric and report "
                             "client-observed latency (repro.net)")
    parser.add_argument("--policy", metavar="NAME", default=None,
                        help="run VESSEL under a registered scheduling "
                             "policy (default, mlfq, sjf, trust-group, "
                             "priority); baselines are unaffected")
    parser.add_argument("--latency-breakdown", action="store_true",
                        help="record per-request lifecycle flights and "
                             "print a per-app per-stage latency "
                             "decomposition after each run")
    parser.add_argument("--trace-requests", metavar="K", type=int,
                        default=0,
                        help="capture and print the K slowest requests' "
                             "full stage-span lists after each run")

    args = parser.parse_args(argv)

    if args.list:
        for key, module in EXPERIMENTS.items():
            print(f"{key:12s} {module}")
        return 0
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.smoke and args.scale == "paper":
        parser.error("--smoke and --scale paper are exclusive")

    selected = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}; "
                     f"choose from {', '.join(EXPERIMENTS)}")

    from repro.experiments.common import ExperimentConfig, PAPER_PROFILE
    from repro.net import NetConfig
    cfg = ExperimentConfig(seed=args.seed, op_breakdown=args.op_breakdown,
                           trace_out=args.trace_out,
                           net=NetConfig() if args.net else None,
                           policy=args.policy,
                           latency_breakdown=args.latency_breakdown,
                           trace_requests=max(0, args.trace_requests))
    if args.scale == "paper":
        cfg = cfg.scaled(**PAPER_PROFILE)

    started = time.perf_counter()
    timings = run_experiments(selected, cfg, jobs=args.jobs,
                              smoke=args.smoke)
    for name, took in timings.items():
        print(f"[{name} took {took:.1f}s]", file=sys.stderr)
    print(f"[total {time.perf_counter() - started:.1f}s, "
          f"jobs={args.jobs}]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
