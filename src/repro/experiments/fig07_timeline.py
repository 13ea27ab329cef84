"""Figure 7: execution timelines of the two schedulers.

The paper's Figure 7 contrasts Caladan's conservative two-level schedule
(cores spin 2 µs before parking, reallocations every 10 µs) with
VESSEL's packed one-level schedule.  This experiment runs both systems
on identical machines/workloads with an execution tracer attached,
renders the per-core occupancy strips, and reports the quantitative
version: what fraction of worker-core time ran application code vs
runtime spinning vs kernel switching vs idle.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer, render_timeline
from repro.sim.units import MS, US
from repro.hardware.machine import Machine
from repro.experiments.common import ExperimentConfig, format_table
from repro.workloads.base import OpenLoopSource
from repro.workloads.linpack import linpack_app
from repro.workloads.memcached import memcached_app, UsrServiceSampler

WINDOW_START_NS = 4 * MS
WINDOW_NS = 200 * US


def _run_traced(system_name: str, cfg: ExperimentConfig):
    from repro.experiments.common import system_factory
    sim = Simulator()
    machine = Machine(sim, cfg.costs, cfg.num_workers + 1)
    tracer = Tracer(sim)
    machine.attach_tracer(tracer)
    rngs = RngStreams(cfg.seed)
    system = system_factory(system_name)(sim, machine, rngs,
                                         worker_cores=machine.cores[1:])
    mc, lp = memcached_app(), linpack_app()
    system.add_app(mc)
    system.add_app(lp)
    system.start()
    OpenLoopSource(sim, mc, system.submit,
                   rate_mops=0.45 * cfg.num_workers,
                   service_sampler=UsrServiceSampler(rngs.stream("svc")),
                   rng=rngs.stream("arr"))
    sim.run(until=WINDOW_START_NS + WINDOW_NS)
    machine.settle_all()
    return tracer, system


def run(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = (cfg or ExperimentConfig()).scaled(num_workers=2)
    results: Dict = {}
    for system_name in ("vessel", "caladan"):
        tracer, system = _run_traced(system_name, cfg)
        t0, t1 = WINDOW_START_NS, WINDOW_START_NS + WINDOW_NS
        cores = [c.id for c in system.worker_cores]
        app = sum(tracer.busy_fraction(c, t0, t1, "app:") for c in cores)
        runtime = sum(tracer.busy_fraction(c, t0, t1, "runtime")
                      for c in cores)
        kernel = sum(tracer.busy_fraction(c, t0, t1, "kernel")
                     for c in cores)
        idle = sum(tracer.busy_fraction(c, t0, t1, "idle") for c in cores)
        n = len(cores)
        results[system_name] = {
            "strip": render_timeline(tracer, t0, t1, cores=cores, width=96),
            "app_fraction": app / n,
            "runtime_fraction": runtime / n,
            "kernel_fraction": kernel / n,
            "idle_fraction": idle / n,
        }
    return results


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    results = run(cfg)
    for system_name, data in results.items():
        print(f"== {system_name} ==")
        print(data["strip"])
        print()
    rows = [[name, round(d["app_fraction"], 3),
             round(d["runtime_fraction"], 3), round(d["kernel_fraction"], 3),
             round(d["idle_fraction"], 3)]
            for name, d in results.items()]
    print(format_table(["system", "app", "runtime", "kernel", "idle"], rows))
    print("paper Figure 7: VESSEL fills the cores with application work; "
          "Caladan's timeline shows spins, kernel switches, and gaps")
    return results
