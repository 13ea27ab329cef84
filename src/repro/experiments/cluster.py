"""Fleet experiment: N servers behind a balancer, three LB policies.

Every server colocates memcached with a membench tenant on a
deliberately narrow memory bus (the Figure-13 interference channel
turned up): while best-effort work streams, latency requests starting
in that window run several times slower.  That gives the fleet two
distinct failure modes — *overload* (a server offered more than its
capacity) and *interference* (best-effort streaming fattening the
tail) — and the front-end arms differ in which one they can fix.

Part A — **hot-key skew**.  ``hot_fraction`` of the load sits on a few
key classes; the placement policy decides which servers eat it:

* round-robin balances batch *counts* and is blind to weights — the
  server that drew the hot classes saturates, requests time out and
  retransmit, the cluster p99 explodes;
* consistent-hash pins every key class to its ring successor — same
  story, and no feedback can ever move a hot key off the hot arc;
* least-loaded starts from the round-robin deal but migrates batches
  away from (stale) queue buildup — the fleet re-levels and p99 falls
  back to the interference floor;
* least-loaded + the fleet **coordinator** also harvests best-effort
  cores on servers whose modeled utilization runs hot, buying the
  latency tier its memory bus back — the interference floor itself
  drops.  Migration fixes overload; harvesting fixes interference;
  the combined arm needs both to beat the others.

Part B — **fleet capacity at SLO**.  A uniform population under
least-loaded, offered-load sweep, VESSEL fleet vs Caladan fleet: the
highest load at which cluster p99 stays within the SLO *at every step
up to it*.  VESSEL's Uintr preemption evicts best-effort work the
instant a request arrives, so its colocated p99 rides near the
no-interference floor; Caladan pays its core-allocation granularity
on every interference window and its colocated floor sits above the
SLO outright.

The ``cluster-*`` rows of ``tests/test_claims.py`` judge both parts on
the ``--smoke`` run, which ``tests/golden_stdout.json`` also pins at
``--jobs 2`` to its serial bytes.

Usage::

    PYTHONPATH=src python -m repro cluster            # full fleet
    PYTHONPATH=src python -m repro cluster --smoke    # CI-sized
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.cluster import ClusterReport
from repro.experiments.common import ExperimentConfig, format_table

#: cluster-wide client-observed p99 budget.  Deliberately tight — a
#: handful of mean service times over the ~3 us network floor — so it
#: separates the systems' *colocated* latency floors, not just their
#: saturation knees (which coincide at smoke scale).
SLO_P99_US = 15.0

#: the narrow shared memory bus (GB/s) and how hard best-effort
#: streaming inflates latency service times while it saturates
BUS_GBPS = 14.0
BUS_SENSITIVITY = 16.0

#: Part A skew arms: (label, lb_policy, coordinator)
SKEW_ARMS: List[Tuple[str, str, bool]] = [
    ("round-robin", "round-robin", False),
    ("consistent-hash", "consistent-hash", False),
    ("least-loaded", "least-loaded", False),
    ("ll+coordinator", "least-loaded", True),
]

#: Part B sweep: offered load as a fraction of fleet nominal capacity
SWEEP_LOADS = (0.75, 0.83, 0.90)
SWEEP_SYSTEMS = ("vessel", "caladan")

#: ``--smoke`` overrides on top of the shared CI profile
SMOKE = dict(sim_ms=6)


def base_cluster(cfg: ExperimentConfig, **overrides) -> ClusterConfig:
    """The experiment's fleet shape (shared by every arm)."""
    params = dict(
        num_servers=4,
        batches=32,
        connections=2_000_000,
        hot_fraction=0.60,
        hot_batches=3,
        load_fraction=0.65,
        epoch_ms=0.25,
        staleness_epochs=1,
        migrate_per_epoch=2,
        bus_sensitivity=BUS_SENSITIVITY,
        harvest_util=0.65,
        interference_capacity=0.72,
    )
    params.update(overrides)
    return ClusterConfig(**params)


def run(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = (cfg or ExperimentConfig()).scaled(membus_gbps=BUS_GBPS)
    skew_arms: List[Tuple[str, ClusterReport]] = []
    for label, lb_policy, coordinator in SKEW_ARMS:
        cluster = base_cluster(cfg, lb_policy=lb_policy,
                               coordinator=coordinator)
        report = Cluster("vessel", cfg, cluster).run(jobs=cfg.jobs)
        skew_arms.append((label, report))

    sweep: List[Tuple[str, float, ClusterReport]] = []
    for system in SWEEP_SYSTEMS:
        for load in SWEEP_LOADS:
            cluster = base_cluster(cfg, lb_policy="least-loaded",
                                   hot_fraction=0.0,
                                   load_fraction=load)
            report = Cluster(system, cfg, cluster).run(jobs=cfg.jobs)
            sweep.append((system, load, report))
    return {"skew_arms": skew_arms, "sweep": sweep}


def sustained_load(results: Dict, system: str) -> float:
    """Highest swept load the fleet served within the p99 SLO at every
    step up to and including it (monotone closure from the bottom, so
    a mid-sweep miss is never papered over by a lucky higher point)."""
    best = 0.0
    for sys_name, load, report in results["sweep"]:
        if sys_name != system:
            continue
        if report.p99_us() > SLO_P99_US:
            break
        best = max(best, load)
    return best


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = cfg or ExperimentConfig()
    results = run(cfg)

    first = results["skew_arms"][0][1]
    plan = first.plan
    connections = sum(b.connections for b in plan.batches)
    print(f"Fleet: {first.cluster.num_servers} servers x "
          f"{cfg.num_workers} workers, {connections:,} modeled "
          f"connections in {len(plan.batches)} batches, "
          f"{first.cluster.hot_fraction:.0%} of "
          f"{plan.total_rate_mops:.1f} Mops/s on "
          f"{first.cluster.hot_batches} hot key classes, "
          f"membench colocated on a {BUS_GBPS:.0f} GB/s bus")
    rows: List[List] = []
    for label, report in results["skew_arms"]:
        ops = report.net_ops.get("mc", {})
        stats = report.plan.coordinator_stats
        rows.append([
            label,
            round(report.p99_us(), 1),
            round(max(report.per_server_p99_us.get("mc", [0.0])), 1),
            round(report.plan.hottest_initial, 3),
            round(report.plan.hottest_final, 3),
            len(report.plan.migrations),
            stats.get("harvests", 0),
            report.completed.get("mc", 0),
            ops.get("losses", 0),
            round(report.useful_ns.get("membench", 0) / 1e6, 1),
        ])
    print(format_table(
        ["arm", "P99 us", "worst srv", "hot share", "-> final",
         "migr", "harvest", "done", "lost", "BE ms"], rows))
    print("(count-balanced and hash-pinned placements leave one server "
          "overloaded; migration re-levels the fleet; harvesting then "
          "buys back the interference floor — at the BE ms cost shown)")

    print(f"\nFleet capacity at SLO (p99 <= {SLO_P99_US:.0f} us), "
          f"uniform population, least-loaded front-end:")
    rows = []
    for system, load, report in results["sweep"]:
        rows.append([
            system, load,
            round(report.p99_us(), 1),
            round(report.throughput_mops(), 2),
            report.net_ops.get("mc", {}).get("losses", 0),
            "ok" if report.p99_us() <= SLO_P99_US else "MISS",
        ])
    print(format_table(
        ["system", "load", "P99 us", "Mops", "lost", "SLO"], rows))
    for system in SWEEP_SYSTEMS:
        floor = min(report.p99_us()
                    for sys_name, _, report in results["sweep"]
                    if sys_name == system)
        print(f"  {system}: sustains "
              f"{sustained_load(results, system):.2f} of fleet nominal "
              f"capacity (best colocated p99 {floor:.1f} us)")
    return results
