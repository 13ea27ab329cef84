"""Shared experiment infrastructure.

The paper's testbed (32 hyperthreads, seconds-long runs, up to 16 Mops/s)
is too large for a Python discrete-event simulator to sweep in CI, so
configurations are reduced: the default "smoke" profile uses 8 worker
cores and tens of milliseconds of simulated time, and the "paper" profile
uses 32 workers and longer windows.  Latency percentiles and orderings
transfer across profiles; the efficiency fractions are calibrated at the
smoke scale (with more cores a pooled queue smooths scheduler churn, so
Caladan's modeled waste shrinks below the paper's testbed numbers — see
EXPERIMENTS.md).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.engine import RunComponent, Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer
from repro.sim.units import MS
from repro.hardware.machine import Machine
from repro.net import NetConfig, NetFabric
from repro.obs import write_chrome_trace
from repro.obs.flight import FlightRecorder
from repro.obs.ledger import OpLedger
from repro.obs.timeseries import GaugeSeries, QueueTracker
from repro.hardware.timing import CostModel
from repro.sched.base import ColocationSystem, SystemReport
from repro.vessel.scheduler import VesselSystem
from repro.baselines.arachne import ArachneSystem
from repro.baselines.caladan import CaladanSystem, caladan_dr_l, caladan_dr_h
from repro.baselines.ideal import IdealSystem
from repro.baselines.linux_cfs import LinuxCfsSystem
from repro.workloads.base import BurstySource, OpenLoopSource
from repro.workloads.linpack import linpack_app
from repro.workloads.membench import membench_app
from repro.workloads.memcached import (
    memcached_app,
    UsrPayloadSampler,
    UsrServiceSampler,
)
from repro.workloads.silo import TpccPayloadSampler, silo_app, \
    silo_service_sampler


@dataclass
class ExperimentConfig:
    """Knobs shared by every experiment."""

    num_workers: int = 8
    sim_ms: int = 30
    warmup_ms: int = 5
    seed: int = 42
    membus_gbps: float = 40.0
    bursty: bool = False
    connections_per_app: int = 10
    costs: CostModel = field(default_factory=CostModel)
    #: print the per-op ledger breakdown after each run
    op_breakdown: bool = False
    #: write each run's Chrome trace_event JSON to its own file, named
    #: from this path by :func:`run_trace_path`
    trace_out: Optional[str] = None
    #: simulate clients/link/NIC (None = direct submit, the seed-faithful
    #: default); set to a NetConfig to measure client-observed latency
    net: Optional[NetConfig] = None
    #: worker processes for sweep fan-out (run_colocation_batch); results
    #: and captured stdout merge in task order, so any value produces
    #: byte-identical output to jobs=1 under the same seed
    jobs: int = 1
    #: scheduling policy for VESSEL runs (see ``repro.sched.policy``);
    #: None = the stock policy.  Baselines ignore it — their policies
    #: ARE the comparison.
    policy: Optional[str] = None
    #: constructor kwargs for the policy (e.g. MLFQ levels, priorities)
    policy_params: Dict = field(default_factory=dict)
    #: print the per-app per-stage latency decomposition after each run
    #: (turns the per-request FlightRecorder on)
    latency_breakdown: bool = False
    #: capture the K slowest requests' full flight-mark lists
    trace_requests: int = 0

    @property
    def flight_on(self) -> bool:
        """True when a run records per-request flights (strictly opt-in:
        default runs stay byte-identical with the recorder off)."""
        return self.latency_breakdown or self.trace_requests > 0

    def scaled(self, **overrides) -> "ExperimentConfig":
        return replace(self, **overrides)


#: the "paper" profile: closer to the testbed scale (slow; not used in CI)
PAPER_PROFILE = dict(num_workers=32, sim_ms=120, warmup_ms=20)
#: the CI-sized profile behind ``python -m repro <name> --smoke``: small,
#: but still exercises rotation, BE preemption and queued placement
SMOKE_PROFILE = dict(num_workers=4, sim_ms=8, warmup_ms=2)


def system_factory(name: str) -> Callable[..., ColocationSystem]:
    factories = {
        "ideal": IdealSystem,
        "vessel": VesselSystem,
        "caladan": CaladanSystem,
        "caladan-dr-l": caladan_dr_l,
        "caladan-dr-h": caladan_dr_h,
        "arachne": ArachneSystem,
        "linux-cfs": LinuxCfsSystem,
    }
    try:
        return factories[name]
    except KeyError:
        raise ValueError(f"unknown system {name!r}; "
                         f"choose from {sorted(factories)}") from None


def make_l_app(kind: str, name: str, rngs: RngStreams):
    """Returns (app, service_sampler) for an L-app kind."""
    if kind == "memcached":
        return (memcached_app(name),
                UsrServiceSampler(rngs.stream(f"svc/{name}")))
    if kind == "silo":
        return silo_app(name), silo_service_sampler(rngs.stream(f"svc/{name}"))
    raise ValueError(f"unknown L-app kind {kind!r}")


def make_payload_sampler(kind: str, name: str, rngs: RngStreams):
    """Wire-size sampler for an L-app kind (only the net path draws from
    it, on its own ``net/payload/*`` stream, so direct-submit runs see
    unchanged randomness)."""
    if kind == "memcached":
        return UsrPayloadSampler(rngs.stream(f"net/payload/{name}"))
    if kind == "silo":
        return TpccPayloadSampler(rngs.stream(f"net/payload/{name}"))
    raise ValueError(f"unknown L-app kind {kind!r}")


def run_colocation(*args, **kwargs) -> SystemReport:
    """The report of :func:`run_colocation_full` (same arguments)."""
    return run_colocation_full(*args, **kwargs)[0]


def run_trace_path(trace_out: str, system_name: str, identity: str) -> str:
    """The file one run's Chrome trace goes to under ``trace_out``.

    The run's system name and a digest of its arguments go in before the
    suffix (``t.json`` -> ``t.vessel-<digest>.json``).  The name depends
    on nothing but the run, so it is the same under ``--jobs 1`` and
    ``--jobs N``; two runs share a file only if they are the same run,
    which writes the same bytes.
    """
    digest = hashlib.sha256(identity.encode()).hexdigest()[:10]
    stem, suffix = os.path.splitext(trace_out)
    return f"{stem}.{system_name}-{digest}{suffix}"


def run_identity(arguments: Dict) -> str:
    """The repr of one run's :func:`run_colocation_full` arguments, in
    signature order: everything that makes the run, but not the knobs
    that leave it unchanged (``trace_file``, the trace path, the worker
    count).  Two calls are the same run exactly when these are equal."""
    values = dict(arguments,
                  cfg=arguments["cfg"].scaled(trace_out=None, jobs=1))
    del values["trace_file"]
    return repr(tuple(values.values()))


def run_colocation_full(system_name: str, cfg: ExperimentConfig,
                        l_specs: Sequence[Tuple[str, str, float]],
                        b_specs: Sequence[str] = ("linpack",),
                        bus_sensitivity: float = 0.0,
                        bw_cap: Optional[Tuple[str, float]] = None,
                        admission=None, trace=None, churn=None,
                        fault_plan=None,
                        track_queues: bool = False,
                        rng_namespace: Optional[str] = None,
                        trace_file: Optional[str] = None):
    """Build and run one colocation simulation: ``(report, system,
    fabric)``, so a caller can read the run's own system and recorders
    after the report is built (``fabric`` is None for direct submit): the
    chaos experiment's preemption and containment counters, for one.

    ``l_specs`` rows are ``(kind, name, rate_mops)``; ``b_specs`` are
    B-app kinds ("linpack" / "membench").  A bandwidth cap (Figure 13)
    is ``bw_cap=(app_name, gbps)``, applied with the system's native
    mechanism: core-granular ticks for Caladan, duty-cycling for VESSEL;
    any other system raises ``ValueError``.

    Every opt-in layer is a :class:`~repro.sim.engine.RunComponent`,
    built explicitly into one ordered list:

    * ``cfg.net`` — a :class:`~repro.net.NetFabric` (clients, link, NIC)
      delivers the load instead of direct submit;
    * ``admission`` (an ``AdmissionConfig``) — load shedding on the
      submit boundary and NIC ingress;
    * ``cfg.flight_on`` — a :class:`~repro.obs.flight.FlightRecorder`
      (per-request stage spans, their audit and printouts);
    * ``fault_plan`` — a :class:`~repro.faults.injector.FaultInjector`
      (churn alone also attaches one with an empty plan, purely for the
      post-run containment audit);
    * ``churn`` (a ``ChurnConfig``) — continuous tenant create/destroy;
    * ``trace`` (a ``LoadTrace``) — shapes every generator's offered rate;
    * ``track_queues`` — a :class:`~repro.obs.timeseries.QueueTracker`
      of L-app queue depth (``queue_peak`` / ``queue_final``);
    * ``bw_cap`` on VESSEL — its duty-cycling bandwidth regulator;
    * ``cfg.flight_on`` again — a
      :class:`~repro.obs.timeseries.GaugeSeries` of system state.

    After the system starts, every component starts in list order.  At
    the end of warm-up the system's ``begin_measurement`` runs, then each
    component's.  After the run, each component contributes its results
    to the system's report.  The list order is the order of the layers'
    same-timestamp events, so it is part of the result.  All arguments
    are picklable, so batch sweeps fan out.

    ``rng_namespace`` spawns the run's RNG streams from a named child
    root instead of the raw seed, so many runs sharing one seed (the
    cluster layer's per-server simulations) draw fully independent
    randomness while staying reproducible.  ``None`` — the default —
    is byte-identical to the historical behaviour.

    With ``cfg.trace_out`` set the run writes its Chrome trace to
    :func:`run_trace_path` of it, a file of its own; ``trace_file``
    writes it to exactly that path instead (a command whose one traced
    run is the point of its ``--trace-out``).
    """
    if trace_file is None and cfg.trace_out is not None:
        # Taken first thing, locals() holds exactly the arguments.
        trace_file = run_trace_path(cfg.trace_out, system_name,
                                    run_identity(locals()))
    sim = Simulator()
    # Observability must be wired before the system is built: layers
    # capture the machine's ledger at construction time.
    ledger = None
    tracer = None
    if cfg.op_breakdown or trace_file is not None:
        tracer = Tracer(sim) if trace_file is not None else None
        ledger = OpLedger(sim=sim, capture_events=trace_file is not None)
    flight = None
    gauges = None
    if cfg.flight_on:
        flight = FlightRecorder(sim,
                                reservoir_k=max(cfg.trace_requests, 4))
        gauges = GaugeSeries(sim)
    machine = Machine(sim, cfg.costs, cfg.num_workers + 1,
                      membus_gbps=cfg.membus_gbps, ledger=ledger,
                      flight=flight)
    if tracer is not None:
        machine.attach_tracer(tracer)
    rngs = RngStreams(cfg.seed)
    if rng_namespace is not None:
        rngs = rngs.spawn(rng_namespace)
    workers = machine.cores[1:]

    factory = system_factory(system_name)
    kwargs = {}
    if system_name == "vessel" and cfg.policy is not None:
        from repro.sched.policy import make_policy
        kwargs["policy"] = make_policy(cfg.policy, **cfg.policy_params)
    if bw_cap is not None and system_name not in ("vessel", "caladan"):
        raise ValueError(f"no bandwidth-cap mechanism for {system_name!r}")
    if system_name == "caladan" and bw_cap is not None:
        kwargs = {"bw_cap_app": bw_cap[0], "bw_cap_gbps": bw_cap[1]}
    system = factory(sim, machine, rngs, worker_cores=workers, **kwargs)
    system.bus_sensitivity = bus_sensitivity

    # Admission control must interpose before anything snapshots the
    # system's bound ``submit`` (direct sources and fabric.connect both
    # capture the reference), so it attaches immediately.
    admission_ctl = None
    if admission is not None:
        from repro.overload.admission import AdmissionControl
        admission_ctl = AdmissionControl(sim, admission, ledger=ledger)
        admission_ctl.attach(system)

    # Load delivery: direct submit (the seed-faithful default) or the
    # simulated client/link/NIC fabric (client-observed percentiles).
    fabric = None
    if cfg.net is not None:
        fabric = NetFabric(sim, cfg.net, rngs, num_workers=len(workers),
                           ledger=ledger, flight=flight)
    sources = []
    for kind, name, rate in l_specs:
        app, sampler = make_l_app(kind, name, rngs)
        system.add_app(app)
        if fabric is not None:
            fabric.add_workload(app, rate, sampler,
                                make_payload_sampler(kind, name, rngs),
                                cfg.connections_per_app)
        else:
            source_cls = BurstySource if cfg.bursty else OpenLoopSource
            sources.append(source_cls(
                sim, app, system.submit, rate, sampler,
                rngs.stream(f"arrivals/{name}"),
                connections=cfg.connections_per_app,
            ))
    for kind in b_specs:
        if kind == "linpack":
            system.add_app(linpack_app())
        elif kind == "membench":
            system.add_app(membench_app(machine.membus))
        else:
            raise ValueError(f"unknown B-app kind {kind!r}")
    if fabric is not None:
        fabric.connect(system)
        fabric.admission = admission_ctl

    # The opt-in layers, in the order their same-timestamp events fire.
    components: List[RunComponent] = [
        c for c in (fabric, admission_ctl, flight) if c is not None]
    if flight is not None:
        flight.bind_report(
            system_name, lambda: _authoritative_samples(fabric, system),
            print_breakdown=cfg.latency_breakdown,
            print_slowest=cfg.trace_requests)
    if fault_plan is not None or churn is not None:
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan
        components.append(FaultInjector(
            fault_plan if fault_plan is not None
            else FaultPlan(seed=cfg.seed), system))
    if churn is not None:
        from repro.overload.churn import ChurnDriver
        components.append(ChurnDriver(sim, system, rngs, churn))
    if trace is not None:
        from repro.overload.trace import LoadShaper
        shaper = LoadShaper(sim, trace)
        if fabric is not None:
            shaper.attach_fabric(fabric)
        for source in sources:
            shaper.attach_source(source)
        components.append(shaper)
    if track_queues:
        components.append(QueueTracker(sim, system, cfg.warmup_ms * MS))
    if system_name == "vessel" and bw_cap is not None:
        from repro.vessel.regulation import VesselBandwidthRegulator
        components.append(VesselBandwidthRegulator(
            sim, system, machine.membus,
            app_name=bw_cap[0], target_gbps=bw_cap[1]))
    if gauges is not None:
        _wire_gauges(gauges, system, workers, fabric, admission_ctl)
        components.append(gauges)

    system.start()
    for component in components:
        component.start()
    sim.at(cfg.warmup_ms * MS, system.begin_measurement)
    for component in components:
        # A warm-up event only for layers with statistics to drop, so a
        # layer without them does not change the run's event count.
        if type(component).begin_measurement \
                is not RunComponent.begin_measurement:
            sim.at(cfg.warmup_ms * MS, component.begin_measurement)
    sim.run(until=cfg.sim_ms * MS)
    # Before system.report(): settling the cores there records more
    # Tracer spans, which the exported trace has never included.
    if ledger is not None:
        if cfg.op_breakdown:
            print(f"\n[{system_name}] per-op breakdown "
                  f"(measurement window)")
            print(ledger.breakdown_table())
        if trace_file is not None:
            write_chrome_trace(trace_file, [
                r for r in (tracer, ledger, flight, gauges)
                if r is not None])
            print(f"[{system_name}] wrote Chrome trace to {trace_file}")
    report = system.report()
    for component in components:
        component.contribute(report)
    return report, system, fabric


def _wire_gauges(gauges, system, workers, fabric, admission_ctl) -> None:
    """Register the standard system-state probes on ``gauges``.

    Probes are pure reads over components that already exist, so the
    sampled run differs from an unsampled one only by the tick events.
    """
    gauges.add_probe(
        "busy_cores",
        lambda: sum(1 for core in workers if core.busy))
    for app in system.apps:
        if app.is_latency:
            gauges.add_probe(f"queue:{app.name}",
                             lambda a=app: len(a.queue))
    if fabric is not None:
        gauges.add_probe(
            "net_inflight",
            lambda: sum(fabric.inflight.values()))
    if admission_ctl is not None:
        last_shed = [0]

        def _shed_rate() -> int:
            total = admission_ctl.total_shed()
            delta = total - last_shed[0]
            last_shed[0] = total
            # begin_measurement resets the counter mid-run; clamp the
            # one negative delta that produces.
            return max(0, delta)

        gauges.add_probe("shed_per_tick", _shed_rate)
    system.add_probes(gauges)


def _authoritative_samples(fabric, system) -> Dict[str, Sequence[int]]:
    """Per-app latency samples of the independent (non-flight) recorder:
    client-observed when a fabric ran, server-side otherwise."""
    if fabric is not None:
        return {name: recorder.samples
                for name, recorder in fabric.client_latency.items()}
    return {app.name: app.latency.samples
            for app in system.apps if app.is_latency}


# ----------------------------------------------------------------------
# Sweep fan-out
# ----------------------------------------------------------------------
def run_task_captured(task):
    """One ``(system_name, cfg, kwargs)`` run with its stdout captured:
    ``(report, system, fabric, stdout)``."""
    import contextlib
    import io

    system_name, cfg, kwargs = task
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        report, system, fabric = run_colocation_full(system_name, cfg,
                                                     **kwargs)
    return report, system, fabric, buffer.getvalue()


def _colocation_worker(task):
    """Pool worker: one run_colocation call with stdout captured."""
    report, _, _, text = run_task_captured(task)
    return report, text


def run_batch(worker, tasks, jobs: int) -> List[SystemReport]:
    """``worker`` (a picklable ``task -> (report, stdout)``) over
    ``tasks`` on ``jobs`` processes; each run's stdout is re-printed in
    task order and the reports come back in task order."""
    from repro.perf.parallel import parallel_map

    reports = []
    for report, text in parallel_map(worker, list(tasks), jobs):
        if text:
            print(text, end="")
        reports.append(report)
    return reports


def run_colocation_batch(tasks: Sequence[Tuple[str, "ExperimentConfig",
                                               Dict]],
                         jobs: int = 1) -> List[SystemReport]:
    """Run independent :func:`run_colocation` calls, fanned out over
    ``jobs`` worker processes.

    ``tasks`` rows are ``(system_name, cfg, kwargs)`` with ``kwargs``
    passed through to :func:`run_colocation` (they must be picklable).
    Reports come back in task order and each run's captured stdout is
    re-printed in task order, so a batch is byte-identical to the
    equivalent serial loop — each run owns its Simulator and seeded RNG
    streams, parallelism only changes wall time.  ``jobs <= 1`` runs
    everything in-process.
    """
    return run_batch(_colocation_worker, tasks, jobs)


# ----------------------------------------------------------------------
# Normalization helpers (the footnote-1 formula)
# ----------------------------------------------------------------------
def l_capacity_mops(cfg: ExperimentConfig, mean_service_ns: float) -> float:
    """Max throughput of an L-app alone on all workers (ideal RTC)."""
    return cfg.num_workers * 1000.0 / mean_service_ns


def normalized_total(report: SystemReport, cfg: ExperimentConfig,
                     l_mean_service: Dict[str, float],
                     b_alone_useful: Optional[Dict[str, float]] = None) -> float:
    """Sum of per-app T_cur/T_max (footnote 1 of the paper).

    For L-apps T_max is the alone capacity; for B-apps T_max is all
    worker cores busy for the whole window unless ``b_alone_useful``
    supplies a measured alone run (needed for membench, whose alone
    throughput is bus-limited).
    """
    total = 0.0
    for name, mean_ns in l_mean_service.items():
        total += report.throughput_mops(name) / l_capacity_mops(cfg, mean_ns)
    denom_default = report.elapsed_ns * report.num_worker_cores
    for name, useful in report.useful_ns.items():
        alone = (b_alone_useful or {}).get(name, denom_default)
        if alone > 0:
            total += useful / alone
    return total


# ----------------------------------------------------------------------
# Pretty printing
# ----------------------------------------------------------------------
def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width text table (every experiment prints these)."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i])
                               for i in range(len(headers))))
    return "\n".join(lines)
