"""The fleet orchestrator: plan serially, simulate in parallel, merge.

A :class:`Cluster` run happens in three strictly separated stages:

1. **Plan** (serial, cheap, pure): draw the connection-batch
   population, place it with the configured LB policy, then walk the
   run epoch by epoch — the fluid model produces per-server telemetry,
   the balancer and coordinator act on it ``staleness_epochs`` late,
   and every decision is recorded as data: a per-server offered-rate
   timeline and a per-server ``(t_ns, cap)`` core-cap schedule.
2. **Simulate** (parallel): each server becomes one ordinary
   ``run_colocation`` task — its own Simulator, spawned RNG root,
   ``server_id``-namespaced NIC fabric, its rate timeline replayed as
   a ``LoadTrace`` and its cap schedule replayed by the
   ``cluster-cap`` policy.  The tasks share nothing, so ``run_batch``
   fans them out over ``--jobs`` processes with byte-identical
   results.  Each server's worker also turns the run's latency
   recorders into log-histograms: the only place any run builds them.
3. **Merge** (serial, in server order): the per-server histograms fold
   through the exact log-histogram merge into cluster-wide
   percentiles; reliability counters and throughput sum.

The plan stage is the only place cross-server coupling exists, and it
finishes before any server simulation starts — that ordering, not
luck, is why the fleet is deterministic under any ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.coordinator import CapSchedule, Coordinator
from repro.cluster.fluid import FleetModel, ServerLoadReport
from repro.cluster.lb import make_lb
from repro.cluster.source import (
    ConnectionBatch, assignment_rates, hottest_share, make_batches)
from repro.net import NetConfig
from repro.obs.hist import LogHistogram
from repro.overload.trace import LoadTrace
from repro.sim.rng import RngStreams
from repro.sched.base import SystemReport
from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS

#: the latency app every server runs (one tenant, fleet-wide keyspace)
L_APP_NAME = "mc"


@dataclass
class ClusterPlan:
    """Everything the control plane decided, as replayable data."""

    batches: List[ConnectionBatch]
    #: final batch -> server placement (after all migrations)
    assignment: List[int]
    #: per-server offered rate (Mops) for each control epoch
    rate_timelines: List[List[float]]
    #: (epoch, batch, src, dst) for every feedback-driven migration
    migrations: List[Tuple[int, int, int, int]]
    #: per-server BE core-cap schedules (None without a coordinator)
    cap_schedules: Optional[List[CapSchedule]]
    #: fleet-wide offered rate (Mops)
    total_rate_mops: float
    #: largest per-server load share before / after feedback
    hottest_initial: float
    hottest_final: float
    #: fluid-model telemetry per epoch (the controllers' world view)
    fluid_history: List[List[ServerLoadReport]] = field(repr=False,
                                                        default_factory=list)
    coordinator_stats: Dict = field(default_factory=dict)


@dataclass
class ClusterReport:
    """One fleet run, merged (all aggregation is exact, never
    percentile-of-percentiles)."""

    system: str
    cluster: ClusterConfig
    plan: ClusterPlan = field(repr=False, default=None)
    server_reports: List[SystemReport] = field(repr=False,
                                               default_factory=list)
    #: cluster-wide client-observed latency summary per app (merged
    #: log-histograms across every server's recorder)
    client_summary: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: cluster-wide server-side latency summary per app
    latency_summary: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: summed per-app completions across servers
    completed: Dict[str, int] = field(default_factory=dict)
    #: summed per-app client reliability counters
    net_ops: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: summed per-B-app useful nanoseconds
    useful_ns: Dict[str, int] = field(default_factory=dict)
    #: total discrete events across the fleet's simulators
    events_fired: int = 0
    #: per-app, per-server client p99 (diagnosis: where the tail lives)
    per_server_p99_us: Dict[str, List[float]] = field(default_factory=dict)

    def p99_us(self, app_name: str = L_APP_NAME) -> float:
        return self.client_summary.get(app_name, {}).get("p99_us",
                                                         float("nan"))

    def throughput_mops(self, app_name: str = L_APP_NAME) -> float:
        elapsed = max((r.elapsed_ns for r in self.server_reports),
                      default=0)
        if elapsed <= 0:
            return 0.0
        return self.completed.get(app_name, 0) * 1000.0 / elapsed

    def fingerprint(self) -> str:
        """Canonical repr of every merged figure — two runs are 'the
        same run' iff these strings match byte-for-byte."""
        net_ops = sorted((app, sorted(counters.items()))
                         for app, counters in self.net_ops.items())
        parts = [
            f"system={self.system}",
            f"lb={self.cluster.lb_policy}",
            f"coordinator={self.cluster.coordinator}",
            f"client={sorted(self.client_summary.items())!r}",
            f"server={sorted(self.latency_summary.items())!r}",
            f"completed={sorted(self.completed.items())!r}",
            f"net_ops={net_ops!r}",
            f"useful={sorted(self.useful_ns.items())!r}",
            f"events={self.events_fired}",
            f"per_server_p99={sorted(self.per_server_p99_us.items())!r}",
            f"migrations={self.plan.migrations!r}",
            f"caps={self.plan.cap_schedules!r}",
            f"hottest={self.plan.hottest_initial:.6f}"
            f"->{self.plan.hottest_final:.6f}",
        ]
        return "; ".join(parts)


class Cluster:
    """N servers behind one balancer, run as one deterministic unit."""

    def __init__(self, system: str, cfg, cluster: ClusterConfig) -> None:
        from repro.experiments.common import l_capacity_mops
        self.system = system
        self.cfg = cfg
        self.cluster = cluster
        #: nominal per-server L capacity, no interference (Mops)
        self.server_capacity_mops = l_capacity_mops(
            cfg, MEMCACHED_MEAN_SERVICE_NS)
        self.total_rate_mops = (cluster.load_fraction
                                * cluster.num_servers
                                * self.server_capacity_mops)

    # -- stage 1: the serial control plane ------------------------------
    def plan(self) -> ClusterPlan:
        cfg, cluster = self.cfg, self.cluster
        rngs = RngStreams(cfg.seed).spawn("cluster")
        batches = make_batches(cluster, rngs)
        lb = make_lb(cluster)
        assignment = lb.assign(batches)
        hottest_initial = hottest_share(batches, assignment,
                                        cluster.num_servers)
        model = FleetModel(cluster, self.server_capacity_mops)
        coordinator = Coordinator(cluster, max_be_cores=cfg.num_workers) \
            if cluster.coordinator else None
        batch_rates = [b.weight * self.total_rate_mops for b in batches]
        epoch_us = cluster.epoch_ns() / 1000.0
        epochs = cluster.num_epochs(cfg.sim_ms)

        timelines: List[List[float]] = [[] for _ in range(cluster.num_servers)]
        history: List[List[ServerLoadReport]] = []
        migrations: List[Tuple[int, int, int, int]] = []
        for epoch in range(epochs):
            stale_epoch = epoch - cluster.staleness_epochs
            if stale_epoch >= 0:
                stale = history[stale_epoch]
                # Queue-depth feedback: a backlogged server reads as
                # its offered rate plus the rate needed to drain the
                # (stale) queue within one epoch.
                loads = [r.rate_mops + r.queue / epoch_us for r in stale]
                moves = lb.rebalance(assignment, loads, batch_rates)
                migrations.extend((epoch, batch, src, dst)
                                  for batch, src, dst in moves)
                if coordinator is not None:
                    coordinator.on_reports(epoch * cluster.epoch_ns(),
                                           stale)
            caps = list(coordinator.caps) if coordinator is not None \
                else [cfg.num_workers] * cluster.num_servers
            rates = assignment_rates(batches, assignment,
                                     cluster.num_servers,
                                     self.total_rate_mops)
            for server in range(cluster.num_servers):
                timelines[server].append(rates[server])
            history.append(model.step(rates, caps))

        return ClusterPlan(
            batches=batches,
            assignment=list(assignment),
            rate_timelines=timelines,
            migrations=migrations,
            cap_schedules=[coordinator.schedule(s)
                           for s in range(cluster.num_servers)]
            if coordinator is not None else None,
            total_rate_mops=self.total_rate_mops,
            hottest_initial=hottest_initial,
            hottest_final=hottest_share(batches, assignment,
                                        cluster.num_servers),
            fluid_history=history,
            coordinator_stats=coordinator.snapshot()
            if coordinator is not None else {},
        )

    # -- stage 2: the parallel data plane -------------------------------
    def server_tasks(self, plan: ClusterPlan,
                     fault_plan=None) -> List[Tuple[str, object, Dict]]:
        """One ``(system, cfg, run_colocation kwargs)`` task per server."""
        cfg, cluster = self.cfg, self.cluster
        base_rate = self.total_rate_mops / cluster.num_servers
        tasks = []
        for server in range(cluster.num_servers):
            server_cfg = cfg.scaled(
                net=NetConfig(server_id=server,
                              clients=cluster.clients_per_server))
            if plan.cap_schedules is not None and self.system == "vessel":
                server_cfg = server_cfg.scaled(
                    policy="cluster-cap",
                    policy_params={
                        "schedule": plan.cap_schedules[server]})
            kwargs = dict(
                l_specs=[("memcached", L_APP_NAME, base_rate)],
                b_specs=("membench",),
                bus_sensitivity=cluster.bus_sensitivity,
                trace=LoadTrace.from_rates(base_rate, cluster.epoch_ms,
                                           plan.rate_timelines[server]),
                rng_namespace=f"cluster/server{server}",
            )
            if fault_plan is not None:
                kwargs["fault_plan"] = fault_plan
            tasks.append((self.system, server_cfg, kwargs))
        return tasks

    # -- stage 3: the merge ---------------------------------------------
    def run(self, jobs: int = 1, fault_plan=None) -> ClusterReport:
        from repro.experiments.common import run_batch
        plan = self.plan()
        reports = run_batch(_server_worker,
                            self.server_tasks(plan, fault_plan=fault_plan),
                            jobs)
        return self.merge(plan, reports)

    def merge(self, plan: ClusterPlan,
              reports: Sequence[SystemReport]) -> ClusterReport:
        out = ClusterReport(system=self.system, cluster=self.cluster,
                            plan=plan, server_reports=list(reports))
        client_hists: Dict[str, List[LogHistogram]] = {}
        server_hists: Dict[str, List[LogHistogram]] = {}
        for report in reports:  # server order == task order: stable
            out.events_fired += report.events_fired
            for name, hist in report.client_hist.items():
                client_hists.setdefault(name, []).append(hist)
                out.per_server_p99_us.setdefault(name, []).append(
                    round(hist.percentile_us(99.0), 3))
            for name, hist in report.latency_hist.items():
                server_hists.setdefault(name, []).append(hist)
            for name, count in report.completed.items():
                out.completed[name] = out.completed.get(name, 0) + count
            for name, useful in report.useful_ns.items():
                out.useful_ns[name] = out.useful_ns.get(name, 0) + useful
            for name, counters in report.net_ops.items():
                merged = out.net_ops.setdefault(name, {})
                for key, value in counters.items():
                    merged[key] = merged.get(key, 0) + value
        for name, hists in client_hists.items():
            out.client_summary[name] = LogHistogram.merged(hists).summary()
        for name, hists in server_hists.items():
            out.latency_summary[name] = LogHistogram.merged(hists).summary()
        return out


def _server_worker(task):
    """Pool worker: one server's run, plus the log-histograms of its
    server-side and client-observed latency that :meth:`Cluster.merge`
    folds.  Only cluster server runs build them; a plain
    ``run_colocation`` report carries none."""
    from repro.experiments.common import run_task_captured

    report, system, fabric, text = run_task_captured(task)
    for app in system.latency_apps:
        report.latency_hist[app.name] = \
            LogHistogram.from_samples(app.latency.samples)
    for name, recorder in fabric.client_latency.items():
        report.client_hist[name] = LogHistogram.from_samples(recorder.samples)
    return report, text
