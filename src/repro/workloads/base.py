"""Application and request abstractions shared by every scheduler system.

An :class:`App` is what a scheduling system colocates.  Latency apps
receive :class:`Request` objects from an open-loop source and expose a
latency recorder; batch apps expose a work generator and count the useful
nanoseconds they manage to harvest.  Both are deliberately scheduler
agnostic: the same app objects run under VESSEL, Caladan, Arachne and
CFS so the comparison is apples-to-apples.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, Optional

from repro.sim.engine import Simulator
from repro.sim.stats import Counter, LatencyRecorder
from repro.workloads.synthetic import exponential_ns


class AppKind(enum.Enum):
    LATENCY = "latency"   #: L-app: open-loop requests, tail-latency SLO
    BATCH = "batch"       #: B-app: harvests whatever cycles are left


class Request:
    """One open-loop request.

    Network integration (``repro.net``): ``client_send_ns`` is when the
    client machine put the request on the wire — distinct from
    ``arrival_ns``, which the NIC restamps to the *server* arrival time —
    so inbound link/NIC queueing is part of the measured latency.
    ``bytes_in``/``bytes_out`` are the request/response payload sizes the
    link charges serialization for.  ``on_complete`` is the response hook
    the client installs (``ColocationSystem.end_service`` fires it).  All
    of these stay at their defaults when no network is configured,
    preserving the direct-submit behaviour.
    """

    __slots__ = ("app", "arrival_ns", "service_ns", "conn_id", "start_ns",
                 "client_send_ns", "bytes_in", "bytes_out", "on_complete",
                 "net_token", "flight")

    def __init__(self, app: "App", arrival_ns: int, service_ns: int,
                 conn_id: int = 0) -> None:
        self.app = app
        self.arrival_ns = arrival_ns
        self.service_ns = service_ns
        self.conn_id = conn_id
        self.start_ns: Optional[int] = None
        self.client_send_ns: Optional[int] = None
        self.bytes_in = 0
        self.bytes_out = 0
        self.on_complete = None
        #: opaque client-side identity (shared across retransmissions)
        self.net_token = None
        #: lifecycle marks list, created by an enabled FlightRecorder
        self.flight = None

    def latency_ns(self, completion_ns: int) -> int:
        if self.client_send_ns is not None:
            return completion_ns - self.client_send_ns
        return completion_ns - self.arrival_ns


class App:
    """An application known to a scheduling system."""

    def __init__(self, name: str, kind: AppKind,
                 mean_service_ns: float = 0.0,
                 batch_work: Optional[object] = None) -> None:
        self.name = name
        #: accounting category of this app's segments, derived once
        #: (no per-segment string formatting on the request path)
        self.category = f"app:{name}"
        self.kind = kind
        #: ``kind is AppKind.LATENCY``, read on every request; a plain
        #: attribute because ``kind`` never changes after construction
        self.is_latency = kind is AppKind.LATENCY
        #: used for capacity normalization of L-apps
        self.mean_service_ns = mean_service_ns
        #: work generator for batch apps (LinpackWork / MembenchWork / ...)
        self.batch_work = batch_work
        # Measurements
        self.offered = Counter(f"{name}/offered")
        self.completed = Counter(f"{name}/completed")
        self.latency = LatencyRecorder(f"{name}/latency")
        #: pending requests, oldest first (the server's receive queue);
        #: ``ColocationSystem.submit`` appends and bumps ``offered``
        self.queue: Deque[Request] = deque()
        #: nanoseconds of useful batch work executed (B-apps)
        self.useful_ns = 0

    # ------------------------------------------------------------------
    def pop_request(self) -> Optional[Request]:
        if not self.queue:
            return None
        return self.queue.popleft()

    def oldest_wait_ns(self, now: int) -> int:
        """Queueing delay signal: age of the oldest pending request."""
        if not self.queue:
            return 0
        return now - self.queue[0].arrival_ns

    def reset_measurements(self) -> None:
        """Drop warmup-phase measurements (queue state is preserved)."""
        self.offered.clear()
        self.completed.clear()
        self.latency.clear()
        self.useful_ns = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<App {self.name} {self.kind.value}>"


class OpenLoopSource:
    """Poisson open-loop request generator for one L-app.

    ``submit`` is the system's intake (it must eventually run the request
    on some core); the source never waits for completions — exactly like
    the paper's client machines.
    """

    def __init__(self, sim: Simulator, app: App, submit: Callable[[Request], None],
                 rate_mops: float, service_sampler: Callable[[], int],
                 rng, connections: int = 1,
                 start_ns: int = 0, stop_ns: Optional[int] = None) -> None:
        if rate_mops < 0:
            raise ValueError(f"negative rate {rate_mops}")
        self.sim = sim
        self.app = app
        self.submit = submit
        self.rate_mops = rate_mops
        self.service_sampler = service_sampler
        self.rng = rng
        self.connections = max(1, connections)
        self.stop_ns = stop_ns
        self.generated = 0
        if rate_mops > 0:
            sim.at(start_ns, self._tick)

    def stop(self) -> None:
        """Stop generating as of now (the pending tick self-cancels)."""
        self.stop_ns = self.sim.now

    def _tick(self) -> None:
        # Hot path: one call per generated request across every sweep.
        # The rate is in Mops/s == ops/µs, so the mean gap is 1000 / rate
        # ns; ``1.0 / (1000.0 / rate)`` keeps those exact float ops (not
        # ``rate / 1000.0``), which the seeded gap draws depend on.
        sim = self.sim
        if self.stop_ns is not None and sim.now >= self.stop_ns:
            return
        request = Request(self.app, sim.now, self.service_sampler(),
                          self.generated % self.connections)
        self.generated += 1
        self.submit(request)
        sim.post(exponential_ns(self.rng.random,
                                1.0 / (1000.0 / self.rate_mops)),
                 self._tick)


class BurstySource(OpenLoopSource):
    """Markov-modulated Poisson source: alternating calm/burst phases.

    Models the µs-scale burstiness of datacenter load (§1): during a
    burst the instantaneous rate is ``burst_factor`` times the base rate;
    phase durations are exponential with the given means.  The long-run
    average rate equals ``rate_mops`` (the base rate is solved for).
    """

    def __init__(self, sim: Simulator, app: App, submit, rate_mops: float,
                 service_sampler, rng, connections: int = 1,
                 burst_factor: float = 4.0,
                 calm_mean_ns: int = 80_000, burst_mean_ns: int = 20_000,
                 start_ns: int = 0, stop_ns: Optional[int] = None) -> None:
        if burst_factor < 1.0:
            raise ValueError(f"burst_factor must be >= 1: {burst_factor}")
        total = calm_mean_ns + burst_mean_ns
        # avg = base*(calm + factor*burst)/total  ==  rate_mops
        base = rate_mops * total / (calm_mean_ns + burst_factor * burst_mean_ns)
        self.burst_factor = burst_factor
        self.calm_mean_ns = calm_mean_ns
        self.burst_mean_ns = burst_mean_ns
        self._in_burst = False
        self._base_rate = base
        super().__init__(sim, app, submit, base, service_sampler, rng,
                         connections, start_ns, stop_ns)
        if rate_mops > 0:
            sim.at(start_ns + calm_mean_ns, self._toggle_phase)

    def _toggle_phase(self) -> None:
        self._in_burst = not self._in_burst
        self.rate_mops = self._base_rate * (
            self.burst_factor if self._in_burst else 1.0
        )
        mean = self.burst_mean_ns if self._in_burst else self.calm_mean_ns
        duration = exponential_ns(self.rng.random, 1.0 / mean)
        if self.stop_ns is None or self.sim.now < self.stop_ns:
            self.sim.post(duration, self._toggle_phase)
