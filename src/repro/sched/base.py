"""The common harness every scheduler system plugs into.

Accounting convention (used by Figures 1b, 2, 9, 10, 12, 13):

* ``app:<name>`` — cycles spent executing that application's logic
  (request service for L-apps, batch chunks for B-apps);
* ``runtime``    — userspace scheduling work: spinning, stealing,
  userspace switches, parked-core polling;
* ``kernel``     — traps, IPIs, signal delivery, kernel context switches,
  the Figure 3 reallocation pipeline;
* ``idle``       — nothing to run (UMWAIT).

The *total normalized throughput* of the paper's Figure 1/9 is then the
fraction of worker-core time in ``app:*`` buckets, optionally normalized
per app against an "alone" run (the experiments do that normalization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.stats import summarize_ns
from repro.hardware.machine import Core, Machine
from repro.workloads.base import App, Request


@dataclass
class SystemReport:
    """Everything an experiment needs from one simulation run."""

    system: str
    elapsed_ns: int
    num_worker_cores: int
    #: aggregated worker-core accounting buckets (ns)
    buckets: Dict[str, int] = field(default_factory=dict)
    #: per L-app latency summaries (summarize_ns output)
    latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: per L-app completed ops
    completed: Dict[str, int] = field(default_factory=dict)
    #: per B-app useful nanoseconds
    useful_ns: Dict[str, int] = field(default_factory=dict)
    #: client-observed latency summaries per L-app (only when the run
    #: went through a ``repro.net`` fabric; empty for direct submit)
    client_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: per-app client reliability counters (offered/completed/retries/
    #: timeouts/losses/...), only when a fabric was attached
    net_ops: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: discrete events the run's Simulator fired (``benchmarks/e2e``
    #: divides CPU time by it for its ns-per-event figure)
    events_fired: int = 0
    #: admission-control accounting (admitted / shed per app and stage),
    #: only when the run attached an AdmissionControl
    admission: Dict = field(default_factory=dict)
    #: peak / final sampled L-app queue depth per app (only when the run
    #: asked for queue tracking) — the graceful-degradation signal
    queue_peak: Dict[str, int] = field(default_factory=dict)
    queue_final: Dict[str, int] = field(default_factory=dict)
    #: post-run containment audit (ColocationSystem.uncontained), when run
    #: with an injector attached; empty means every fault was absorbed
    uncontained: List[str] = field(default_factory=list)
    #: injected-fault counts by kind, when an injector was attached
    fault_injected: Dict[str, int] = field(default_factory=dict)
    #: tenant-churn accounting (ChurnDriver.snapshot), when enabled
    churn: Dict = field(default_factory=dict)
    #: per-app request-conservation check (NetFabric.conservation)
    net_conservation: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: autoscaler controller state (SloAutoscalePolicy.contribute)
    autoscale: Dict = field(default_factory=dict)
    #: per-app per-stage latency decomposition
    #: (FlightRecorder.stage_summaries), when flight recording was on
    latency_stages: Dict[str, Dict] = field(default_factory=dict)
    #: per-app flight outcome counts (done/dup/shed/drop)
    flight_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: trace-invariant audit violations (empty == clean), when flight
    #: recording was on
    flight_audit: List[str] = field(default_factory=list)
    #: per L-app server-side latency log-histograms
    #: (``repro.obs.hist.LogHistogram``), exact-mergeable across runs.
    #: Only the cluster's server worker fills them, for its merge; a
    #: plain ``run_colocation`` report leaves them empty.
    latency_hist: Dict[str, object] = field(default_factory=dict)
    #: per L-app client-observed latency log-histograms, filled like
    #: ``latency_hist`` (cluster server runs only)
    client_hist: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def throughput_mops(self, app_name: str) -> float:
        """Completed ops per microsecond (== Mops/s) for an L-app."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.completed.get(app_name, 0) * 1000.0 / self.elapsed_ns

    def cores_equivalent(self, category: str) -> float:
        """Busy time of one bucket expressed in cores.

        ``busy / elapsed`` directly: the naive form divides busy by the
        whole machine's time (elapsed * num_cores) and scales back up by
        num_cores, which cancels exactly.
        """
        if self.elapsed_ns <= 0:
            return 0.0
        if category == "app":
            busy = sum(v for k, v in self.buckets.items()
                       if k.startswith("app:"))
        else:
            busy = self.buckets.get(category, 0)
        return busy / self.elapsed_ns

    def app_fraction(self) -> float:
        """Fraction of worker-core time doing application work."""
        total = self.elapsed_ns * self.num_worker_cores
        if total <= 0:
            return 0.0
        busy = sum(v for k, v in self.buckets.items() if k.startswith("app:"))
        return busy / total

    def waste_fraction(self) -> float:
        """Fraction of worker-core time in runtime+kernel overhead."""
        total = self.elapsed_ns * self.num_worker_cores
        if total <= 0:
            return 0.0
        waste = self.buckets.get("runtime", 0) + self.buckets.get("kernel", 0)
        return waste / total

    def p99_us(self, app_name: str) -> float:
        return self.latency.get(app_name, {}).get("p99_us", float("nan"))

    def p999_us(self, app_name: str) -> float:
        return self.latency.get(app_name, {}).get("p999_us", float("nan"))

    def client_p99_us(self, app_name: str) -> float:
        return self.client_latency.get(app_name, {}).get("p99_us",
                                                         float("nan"))


class CoreState:
    """A system's view of one worker core: what it is doing (``kind``,
    each system's own labels), the request in service and the batch
    chunk in flight.  :meth:`ColocationSystem.evict` reads and clears
    the last two."""

    __slots__ = ("core", "kind", "request", "batch_run")

    def __init__(self, core: Core) -> None:
        self.core = core
        self.kind: Optional[str] = None
        self.request: Optional[Request] = None
        self.batch_run = None


class ColocationSystem:
    """Base class: apps, submission, measurement windows, reporting.

    Every system begins, ends and cuts short a request's service through
    the same three methods: :meth:`begin_service`, :meth:`end_service`
    and :meth:`evict`.
    """

    name = "base"

    def __init__(self, sim: Simulator, machine: Machine, rngs: RngStreams,
                 worker_cores: Optional[List[Core]] = None) -> None:
        self.sim = sim
        self.machine = machine
        self.costs = machine.costs
        #: every system charges operations into the machine's ledger so
        #: per-op breakdowns line up with the hardware-level charges
        self.ledger = machine.ledger
        #: per-request lifecycle recorder (NULL_FLIGHT when tracing is
        #: off; hot paths guard with ``if self.flight.enabled:``)
        self.flight = machine.flight
        #: the :class:`~repro.net.fabric.NetFabric` feeding this system,
        #: set by ``NetFabric.connect``; None for direct submit
        self.net_fabric = None
        self.rngs = rngs
        #: cores running application work; by convention core 0 is
        #: reserved for the system's scheduler / IOKernel when the system
        #: needs one, so default workers are cores[1:].
        self.worker_cores = worker_cores if worker_cores is not None \
            else machine.cores[1:]
        if not self.worker_cores:
            raise ValueError("need at least one worker core")
        self.apps: List[App] = []
        self._started = False
        self._measuring_since: Optional[int] = None
        #: how strongly memory-bus contention inflates request service
        #: times (0 = decoupled; Figure 13a uses a positive value).  The
        #: inflation applies above a half-loaded bus:
        #:   service' = service * (1 + sensitivity * max(0, util - 0.5))
        self.bus_sensitivity: float = 0.0

    # ------------------------------------------------------------------
    @property
    def latency_apps(self) -> List[App]:
        return [app for app in self.apps if app.is_latency]

    @property
    def batch_apps(self) -> List[App]:
        return [app for app in self.apps if not app.is_latency]

    def add_app(self, app: App) -> None:
        if any(existing.name == app.name for existing in self.apps):
            raise ValueError(f"duplicate app name {app.name!r}")
        self.apps.append(app)

    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Open-loop intake; subclasses react in ``on_arrival``."""
        if self.flight.enabled:
            self.flight.on_submit(request)
        # The counter is bumped directly (Counter.add's negative check
        # cannot fire for 1).
        app = request.app
        app.offered.value += 1
        app.queue.append(request)
        self.on_arrival(app, request)

    def on_arrival(self, app: App, request: Request) -> None:
        raise NotImplementedError

    def begin_service(self, request: Request,
                      core_id: Optional[int] = None) -> int:
        """A core begins (or resumes, after preempt/IO) serving a request.

        The one chokepoint every system's dispatch path goes through:
        stamps ``start_ns``, marks the flight's ``run_start`` and returns
        how long the service runs: ``request.service_ns``, inflated by
        the current memory-bus contention when ``bus_sensitivity`` is
        positive.
        """
        request.start_ns = self.sim.now
        if self.flight.enabled:
            self.flight.mark(request, "run_start", core=core_id)
        if self.bus_sensitivity <= 0.0:
            return request.service_ns
        over = max(0.0, self.machine.membus.utilization() - 0.5)
        return int(request.service_ns * (1.0 + self.bus_sensitivity * over))

    def end_service(self, request: Request) -> None:
        """A core finishes serving a request.

        The one chokepoint every system's completion path goes through:
        counts the completion, records its latency (client-observed when
        a client stamped ``client_send_ns``), fires the request's
        response hook and closes a direct-submit flight.
        """
        # Hot path: one call per request; Request.latency_ns is inlined.
        app = request.app
        now = self.sim.now
        app.completed.value += 1
        sent = request.client_send_ns
        app.latency.record(now - (request.arrival_ns if sent is None
                                  else sent))
        if request.on_complete is not None:
            request.on_complete(request, now)
        if self.flight.enabled:
            self.flight.on_complete(request)

    def evict(self, state: CoreState, requeue: bool = False) -> None:
        """The one eviction path: cut short what runs on ``state.core``.

        A batch chunk stops; a request in service stops too, and its
        remaining service goes back to the front of its app's queue
        (``requeue``) or is lost.  Any other segment (spinning, a kernel
        transition) is simply cancelled.  The caller settles ``kind`` and
        what the core does next.
        """
        if state.batch_run is not None:
            state.batch_run.preempt()
            state.batch_run = None
        elif state.core.busy:
            remaining = state.core.preempt()
            request = state.request
            if requeue and request is not None:
                request.service_ns = max(1, remaining)
                if self.flight.enabled:
                    self.flight.mark(request, "preempt", core=state.core.id)
                request.app.queue.appendleft(request)
        state.request = None

    def start(self) -> None:
        """Begin scheduling; a system starts once, before ``sim.run``."""
        if self._started:
            raise RuntimeError("system already started")
        self._started = True
        self.on_start()

    def on_start(self) -> None:
        """Prime the cores and arm the system's periodic work."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Measurement window control
    # ------------------------------------------------------------------
    def begin_measurement(self) -> None:
        """Discard warmup statistics; call mid-simulation via sim.at()."""
        for app in self.apps:
            app.reset_measurements()
        for core in self.worker_cores:
            core.settle()
            core.acct.clear()
        # Op statistics cover the same window the report does.
        self.ledger.reset()
        self._measuring_since = self.sim.now

    def report(self) -> SystemReport:
        since = self._measuring_since if self._measuring_since is not None \
            else 0
        elapsed = self.sim.now - since
        buckets: Dict[str, int] = {}
        for core in self.worker_cores:
            core.settle()
            for category, value in core.acct.buckets.items():
                buckets[category] = buckets.get(category, 0) + value
        rep = SystemReport(
            system=self.name,
            elapsed_ns=elapsed,
            num_worker_cores=len(self.worker_cores),
            buckets=buckets,
            events_fired=self.sim.events_fired,
        )
        for app in self.apps:
            if app.is_latency:
                rep.latency[app.name] = summarize_ns(app.latency.samples)
                rep.completed[app.name] = app.completed.value
            else:
                rep.useful_ns[app.name] = app.useful_ns
        return rep

    def uncontained(self) -> List[str]:
        """Post-run containment audit (empty: every fault absorbed): wedged
        worker cores, plus the checks of a system's own containment."""
        return [f"core {core.id} wedged" for core in self.worker_cores
                if core.wedged]

    def add_probes(self, gauges) -> None:
        """Register this system's own gauge probes (none by default)."""
