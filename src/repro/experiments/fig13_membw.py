"""Figure 13: memory-bandwidth regulation (§6.3.4).

(a) Colocating memcached with the memory-intensive *membench* under a
    bandwidth budget for the B-app.  Both schedulers enforce the budget
    with their own mechanism — VESSEL duty-cycles cores at tens of
    microseconds (switches cost 0.16 µs), Caladan revokes/regrants whole
    cores at its 10 µs tick through the 5.3 µs kernel pipeline — and the
    memcached service time inflates with bus utilization, so imprecise
    regulation shows up as tail latency *and* lost B-app throughput.
    Paper: VESSEL achieves up to 43% higher total normalized throughput.

(b) Regulation accuracy: a single membench thread throttled to
    10%..100% of its solo bandwidth by VESSEL duty-cycling, Intel MBA,
    and a cgroup CPU quota.  Paper: MBA and the cgroup approach consume
    far more bandwidth than desired; VESSEL tracks the target.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS
from repro.hardware.machine import Machine
from repro.baselines.cgroup_bw import CgroupBandwidthRegulator
from repro.baselines.mba import MbaRegulator
from repro.workloads.membench import MembenchWork, membench_app
from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    l_capacity_mops,
    normalized_total,
    run_colocation,
    run_colocation_batch,
)
from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS

BUS_SENSITIVITY = 4.0
#: the bandwidth threshold both schedulers enforce on membench
BW_CAP_GBPS = 20.0
P999_SLO_US = 30.0
LOADS = (0.2, 0.4, 0.6)
TARGETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


# ----------------------------------------------------------------------
# (a) colocation under a bandwidth budget
# ----------------------------------------------------------------------
def _membench_alone_useful(cfg: ExperimentConfig) -> int:
    """membench running alone on all workers (T_max for normalization)."""
    report = run_colocation("ideal", cfg, l_specs=[],
                            b_specs=("membench",))
    return max(1, report.useful_ns.get("membench", 1))


def run_colocation_part(cfg: Optional[ExperimentConfig] = None) -> Dict:
    """Fixed bandwidth threshold for the B-app, enforced by each system's
    own mechanism.  VESSEL duty-cycles cores to the exact budget;
    Caladan's core-granular control quantizes down to whole cores, losing
    B-app throughput, and its kernel-mediated switching keeps the L-app's
    tail higher."""
    cfg = cfg or ExperimentConfig()
    capacity = l_capacity_mops(cfg, MEMCACHED_MEAN_SERVICE_NS)
    alone = _membench_alone_useful(cfg)
    points = [(load, system) for load in LOADS
              for system in ("vessel", "caladan")]
    tasks = [(system, cfg, dict(
        l_specs=[("memcached", "memcached", load * capacity)],
        b_specs=("membench",), bus_sensitivity=BUS_SENSITIVITY,
        bw_cap=("membench", BW_CAP_GBPS))) for load, system in points]
    reports = run_colocation_batch(tasks, jobs=cfg.jobs)
    rows: List[Dict] = []
    for (load, system), report in zip(points, reports):
        p999 = report.p999_us("memcached")
        rows.append({
            "system": system,
            "load": load,
            "cap": BW_CAP_GBPS,
            "total_normalized": normalized_total(
                report, cfg, {"memcached": MEMCACHED_MEAN_SERVICE_NS},
                b_alone_useful={"membench": alone}),
            "p999_us": p999,
            "meets_slo": p999 <= P999_SLO_US,
        })
    advantage = []
    for load in LOADS:
        vessel = next(r for r in rows if r["load"] == load
                      and r["system"] == "vessel")
        caladan = next(r for r in rows if r["load"] == load
                       and r["system"] == "caladan")
        if caladan["total_normalized"] > 0:
            advantage.append(vessel["total_normalized"]
                             / caladan["total_normalized"] - 1.0)
    return {"rows": rows, "max_advantage": max(advantage, default=0.0),
            "slo_us": P999_SLO_US}


# ----------------------------------------------------------------------
# (b) regulation accuracy
# ----------------------------------------------------------------------
def _measure_vessel(cfg: ExperimentConfig, target_fraction: float) -> float:
    from repro.vessel.scheduler import VesselSystem
    from repro.vessel.regulation import VesselBandwidthRegulator
    sim = Simulator()
    machine = Machine(sim, cfg.costs, 2, membus_gbps=cfg.membus_gbps)
    rngs = RngStreams(cfg.seed)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:])
    app = membench_app(machine.membus)
    system.add_app(app)
    system.start()
    solo = app.batch_work.solo_gbps()
    regulator = VesselBandwidthRegulator(
        sim, system, machine.membus, "membench",
        target_gbps=target_fraction * solo)
    regulator.start()
    sim.run(until=10 * MS)
    meter_bytes = machine.membus.consumed_bytes("membench")
    return meter_bytes / (10 * MS) / solo


def _measure_mba(cfg: ExperimentConfig, target_fraction: float) -> float:
    sim = Simulator()
    machine = Machine(sim, cfg.costs, 1, membus_gbps=cfg.membus_gbps)
    app = membench_app(machine.membus)
    work: MembenchWork = app.batch_work
    regulator = MbaRegulator(machine.membus, "membench",
                             full_rate_gbps=work.demand_gbps)
    regulator.set_target(target_fraction * 100.0)

    def loop() -> None:
        work.start(machine.cores[0], on_done=loop)

    loop()
    sim.run(until=10 * MS)
    return (machine.membus.consumed_bytes("membench")
            / (10 * MS) / work.solo_gbps())


def _measure_cgroup(cfg: ExperimentConfig, target_fraction: float) -> float:
    sim = Simulator()
    machine = Machine(sim, cfg.costs, 1, membus_gbps=cfg.membus_gbps)
    app = membench_app(machine.membus)
    regulator = CgroupBandwidthRegulator(
        sim, machine.cores[0], app.batch_work, target_fraction)
    regulator.start()
    horizon = 10 * regulator.period_ns
    sim.run(until=horizon)
    return (machine.membus.consumed_bytes("membench")
            / horizon / app.batch_work.solo_gbps())


def run_accuracy_part(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = cfg or ExperimentConfig()
    rows = []
    for target in TARGETS:
        rows.append({
            "target": target,
            "vessel": _measure_vessel(cfg, target),
            "mba": _measure_mba(cfg, target),
            "cgroup": _measure_cgroup(cfg, target),
        })
    def max_err(key: str) -> float:
        return max(abs(r[key] - r["target"]) for r in rows)
    return {"rows": rows,
            "max_error": {k: max_err(k) for k in ("vessel", "mba",
                                                  "cgroup")}}


def run(cfg: Optional[ExperimentConfig] = None) -> Dict:
    return {
        "colocation": run_colocation_part(cfg),
        "accuracy": run_accuracy_part(cfg),
    }


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    results = run(cfg)
    colo = results["colocation"]
    rows = [[r["system"], r["load"], round(r["cap"], 1),
             round(r["total_normalized"], 3), round(r["p999_us"], 1),
             "yes" if r["meets_slo"] else "NO"] for r in colo["rows"]]
    print(f"Figure 13a: memcached + membench, best budget at "
          f"P999 <= {colo['slo_us']:.0f} us")
    print(format_table(["system", "L load", "budget GB/s", "total norm",
                        "P999 us", "meets SLO"], rows))
    print(f"VESSEL advantage: up to {colo['max_advantage']:.1%} "
          f"(paper: up to 43%)\n")

    acc = results["accuracy"]
    rows = [[f"{r['target']:.0%}", f"{r['vessel']:.1%}",
             f"{r['mba']:.1%}", f"{r['cgroup']:.1%}"]
            for r in acc["rows"]]
    print("Figure 13b: bandwidth-regulation accuracy (fraction of solo bw)")
    print(format_table(["target", "vessel", "MBA", "cgroup"], rows))
    print("max |error|: " + ", ".join(
        f"{k} {v:.1%}" for k, v in acc["max_error"].items()))
    print("paper: MBA and the cgroup approach use far more bandwidth than "
          "desired; VESSEL is accurate")
    return results
