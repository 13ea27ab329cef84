"""Glue between client machines, the link, the NIC, and a server system.

``NetFabric`` assembles the simulated testbed: N client machines, a
full-duplex serializing :class:`~repro.net.link.Link` (one serializer
per direction — the server's port is the shared bottleneck), and the
server's multi-queue :class:`~repro.net.nic.Nic`, whose RSS rings
deliver into the scheduling system's intake.  Responses travel back over
the server→clients direction and are recorded by per-app client-side
latency recorders, so the fabric's percentiles are *client-observed*
(send to response received), strictly including everything the
server-side recorder sees.

Determinism: every random decision (arrival gaps, payload sizes, the
RSS key) draws from the run's :class:`~repro.sim.rng.RngStreams`, so two
runs with the same seed produce byte-identical reports.

Fault injection: the fabric's links are listed in :attr:`links`; the
fault injector installs packet drop/delay dispositions there, and every
loss is surfaced to the owning client, which retries — loss never
silently vanishes from the accounting.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.net.client import ClientMachine, _ClientWorkload
from repro.net.config import NetConfig
from repro.net.link import Link
from repro.net.nic import Nic
from repro.obs.flight import NULL_FLIGHT
from repro.obs.ledger import NULL_LEDGER, OpLedger
from repro.sim.engine import RunComponent, Simulator
from repro.sim.rng import RngStreams
from repro.sim.stats import LatencyRecorder, summarize_ns
from repro.workloads.base import App, Request

#: per-app counters the fabric tracks (report rows are in this order)
COUNTER_KEYS = ("offered", "completed", "retries", "timeouts", "losses",
                "drops_observed", "dup_responses", "sheds",
                "retries_suppressed", "backoff_ns")


class NetFabric(RunComponent):
    """The simulated cluster around one server machine."""

    def __init__(self, sim: Simulator, cfg: NetConfig, rngs: RngStreams,
                 num_workers: int,
                 ledger: Optional[OpLedger] = None,
                 flight=None) -> None:
        self.sim = sim
        self.cfg = cfg
        self.rngs = rngs
        self.ledger = ledger or NULL_LEDGER
        self.flight = flight or NULL_FLIGHT
        self.link_in = Link(sim, "clients->server", cfg.gbps,
                            cfg.propagation_ns, ledger=self.ledger,
                            on_drop=self._on_drop)
        self.link_out = Link(sim, "server->clients", cfg.gbps,
                             cfg.propagation_ns, ledger=self.ledger,
                             on_drop=self._on_drop)
        rss_key = rngs.stream(f"{cfg.stream_prefix()}/rss").getrandbits(64)
        self.nic = Nic(sim, None,
                       num_rings=cfg.num_rings(num_workers),
                       ring_capacity=cfg.ring_capacity, nic_ns=cfg.nic_ns,
                       rss_key=rss_key, ledger=self.ledger,
                       on_drop=self._on_drop)
        self.machines = [ClientMachine(sim, i, self, cfg)
                         for i in range(max(1, cfg.clients))]
        #: client-observed latency per app (send -> response received)
        self.client_latency: Dict[str, LatencyRecorder] = {}
        #: per-app reliability counters (see COUNTER_KEYS)
        self.stats: Dict[str, Dict[str, int]] = {}
        self._specs: List[Tuple[App, float, Callable, Optional[Callable],
                                int]] = []
        self.submit: Optional[Callable[[Request], None]] = None
        #: logical requests sent but not yet completed or lost.  Unlike
        #: ``stats`` this gauge is *not* reset at ``begin_measurement``
        #: (a request in flight across the warmup boundary still has to
        #: terminate); the reset instead snapshots it, so the identity
        #: ``offered + in_flight_at_reset == completed + losses +
        #: in_flight`` holds exactly for any warmup window.
        self.inflight: Dict[str, int] = {}
        self._inflight_at_reset: Dict[str, int] = {}
        #: optional server-side admission control
        #: (:class:`repro.overload.admission.AdmissionControl`); when set
        #: the fabric consults it before a packet occupies an RX ring.
        self.admission = None

    @property
    def links(self) -> List[Link]:
        return [self.link_in, self.link_out]

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def add_workload(self, app: App, rate_mops: float,
                     service_sampler: Callable[[], int],
                     payload_sampler: Optional[Callable[[], Tuple[int, int]]],
                     connections: int) -> None:
        """Register one L-app the clients will drive."""
        if rate_mops < 0:
            raise ValueError(f"negative rate {rate_mops}")
        self._specs.append((app, rate_mops, service_sampler,
                            payload_sampler, max(1, connections)))
        self.client_latency[app.name] = LatencyRecorder(
            f"client/{app.name}")
        self.stats[app.name] = {key: 0 for key in COUNTER_KEYS}
        self.inflight[app.name] = 0

    def connect(self, system) -> None:
        """Wire the fabric into ``system`` and start the generators."""
        if self.submit is not None:
            raise RuntimeError("fabric already connected")
        self.submit = system.submit
        # The rings restamp arrival_ns and hand the request straight to
        # the system's intake, the same path a direct submit takes.
        self.nic.deliver_to(system.submit)
        system.net_fabric = self
        num_machines = len(self.machines)
        for app, rate, service_sampler, payload_sampler, conns \
                in self._specs:
            for machine in self.machines:
                conn_ids = [c for c in range(conns)
                            if c % num_machines == machine.index]
                if not conn_ids:
                    continue
                machine.add_workload(_ClientWorkload(
                    app, service_sampler, payload_sampler, conn_ids,
                    rate * len(conn_ids) / conns,
                    self.rngs.stream(
                        f"{self.cfg.stream_prefix()}/arrivals/"
                        f"{app.name}/{machine.index}")))
        for machine in self.machines:
            machine.start()

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------
    def send_to_server(self, request: Request) -> None:
        request.on_complete = self._server_done
        if self.flight.enabled:
            self.flight.begin(request)
        self.link_in.send(request, request.bytes_in + self.cfg.header_bytes,
                          self._nic_rx)

    def _nic_rx(self, request: Request) -> None:
        if self.flight.enabled:
            self.flight.mark(request, "ingress")
        if self.admission is not None:
            reason = self.admission.reason_to_shed(request.app,
                                                   self.sim.now)
            if reason is not None:
                # Rejected before it occupies an RX ring slot: the
                # cheapest point to shed, and the rejection flows back to
                # the client like any response.
                self.admission.count_shed(request.app.name, reason,
                                          stage="ingress")
                self.shed_response(request)
                return
        self.nic.rx(request)

    def _server_done(self, request: Request, now: int) -> None:
        """App.complete hook: ship the response back to its client."""
        # The "complete" mark lands here (not in the system's
        # ``flight.on_complete``) so a fault-injected drop inside
        # ``link_out.send`` finalizes a flight whose last mark is
        # already "complete" — the net_out stage exists even for
        # responses the link loses.
        if self.flight.enabled:
            self.flight.mark(request, "complete")
        self.link_out.send(request,
                           request.bytes_out + self.cfg.header_bytes,
                           self._deliver_response)

    def _deliver_response(self, request: Request) -> None:
        pending = request.net_token
        outcome = "dup" if pending.done else "done"
        pending.machine.on_response(request)
        if self.flight.enabled:
            self.flight.finalize(request, outcome)

    def shed_response(self, request: Request) -> None:
        """Admission control rejected ``request``; tell its client.

        The rejection is a tiny response riding the server->clients
        direction, so clients observe sheds with realistic delay and the
        accounting (``sheds`` counter, ``shed_response`` op) is exact.
        """
        self.bump(request.app.name, "sheds", op="shed_response")
        if self.flight.enabled:
            self.flight.mark(request, "shed")
        self.link_out.send(request, self.cfg.header_bytes,
                           self._deliver_shed)

    def _deliver_shed(self, request: Request) -> None:
        pending = request.net_token
        if pending is not None:
            pending.machine.on_shed(request)
        if self.flight.enabled:
            self.flight.finalize(request, "shed")

    def _on_drop(self, request: Request) -> None:
        """A link or NIC ring lost this packet; tell the owning client."""
        pending = request.net_token
        if pending is not None:
            pending.machine.on_drop(request)
        if self.flight.enabled:
            self.flight.finalize(request, "drop")

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def bump(self, app_name: str, key: str,
             op: Optional[str] = None) -> None:
        stats = self.stats.get(app_name)
        if stats is not None:
            stats[key] += 1
        if op is not None and self.ledger.enabled:
            self.ledger.count_op(op, domain="net")

    def add(self, app_name: str, key: str, amount: int) -> None:
        """Accumulate ``amount`` into a counter (e.g. ``backoff_ns``)."""
        stats = self.stats.get(app_name)
        if stats is not None:
            stats[key] += amount

    def conservation(self) -> Dict[str, Dict[str, int]]:
        """Per-app accounting identity over the counted window.

        Every request offered in the window — plus every request already
        in flight when the window opened — terminates as exactly one of
        completed / lost, or is still in flight at the horizon, so
        ``balance`` is always 0.  (Sheds, timeouts, and retries are
        intermediate outcomes of attempts, not of logical requests, so
        they don't enter the identity.)
        """
        rows: Dict[str, Dict[str, int]] = {}
        for app, stats in self.stats.items():
            in_flight = self.inflight.get(app, 0)
            carried = self._inflight_at_reset.get(app, 0)
            rows[app] = {
                "offered": stats["offered"],
                "in_flight_at_reset": carried,
                "completed": stats["completed"],
                "losses": stats["losses"],
                "in_flight": in_flight,
                "balance": stats["offered"] + carried
                - stats["completed"] - stats["losses"] - in_flight,
            }
        return rows

    def record_latency(self, app_name: str, latency_ns: int) -> None:
        recorder = self.client_latency.get(app_name)
        if recorder is not None:
            recorder.record(latency_ns)

    def begin_measurement(self) -> None:
        """Drop warmup-phase client statistics (in-flight state stays)."""
        for recorder in self.client_latency.values():
            recorder.clear()
        for stats in self.stats.values():
            for key in stats:
                stats[key] = 0
        self._inflight_at_reset = dict(self.inflight)

    def counters_snapshot(self) -> Dict[str, Dict[str, int]]:
        return {app: dict(stats) for app, stats in self.stats.items()}

    def contribute(self, report) -> None:
        """Client-observed latency, counters and the conservation check."""
        for name, recorder in self.client_latency.items():
            report.client_latency[name] = summarize_ns(recorder.samples)
        report.net_ops = self.counters_snapshot()
        report.net_conservation = self.conservation()
