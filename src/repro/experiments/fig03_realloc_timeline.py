"""Figure 3: the timeline of core reallocation with Caladan.

The paper's breakdown: the scheduler issues an ioctl, the kernel IPIs the
victim core, the victim traps and receives a SIGUSR so its runtime saves
state, the kernel switches page tables and task structures, and the core
restores into the new application — 5.3 µs on average, during which the
core runs no application work.

The experiment executes the pipeline on a simulated core and reports the
per-phase cumulative timeline plus where the time is accounted.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.engine import Simulator
from repro.hardware.machine import Machine
from repro.kernel.kschedule import KernelReallocPipeline
from repro.experiments.common import ExperimentConfig, format_table

PAPER_TOTAL_US = 5.3


def run(cfg: ExperimentConfig = None) -> Dict:
    cfg = cfg or ExperimentConfig()
    sim = Simulator()
    machine = Machine(sim, cfg.costs, 1)
    pipeline = KernelReallocPipeline(cfg.costs)
    done_at = []
    pipeline.run(machine.cores[0], lambda: done_at.append(sim.now))
    sim.run()
    machine.cores[0].settle()

    phases = pipeline.phases()
    timeline = []
    cursor = 0
    for phase in phases:
        timeline.append({
            "phase": phase.name,
            "start_us": cursor / 1000.0,
            "duration_us": phase.duration_ns / 1000.0,
            "category": phase.category,
        })
        cursor += phase.duration_ns
    return {
        "timeline": timeline,
        "measured_total_us": done_at[0] / 1000.0,
        "paper_total_us": PAPER_TOTAL_US,
        "accounting": dict(machine.cores[0].buckets),
    }


def main(cfg: ExperimentConfig = None) -> Dict:
    results = run(cfg)
    rows = [[p["phase"], round(p["start_us"], 2), round(p["duration_us"], 2),
             p["category"]] for p in results["timeline"]]
    print("Figure 3: Caladan core-reallocation timeline")
    print(format_table(["phase", "start (us)", "duration (us)", "charged to"],
                       rows))
    print(f"total: measured {results['measured_total_us']:.2f} us, "
          f"paper {results['paper_total_us']:.2f} us")
    return results
