"""Simulated client machines.

The paper's load is generated by four client machines, each holding many
connections to the server; latency is measured *at the client*, from the
send timestamp to the response arriving back — so inbound link queueing,
NIC ring waits, response serialization, and retransmission delays are
all part of the reported percentiles.

Each :class:`ClientMachine` owns a share of every workload's connections
and runs an open-loop Poisson generator over them (the sum of the
machines' rates equals the configured offered load).

Reliability: every logical request carries a timeout; on expiry — or
immediately on an *observed* drop, since the fabric surfaces link and
NIC losses through drop callbacks — the machine retransmits up to
``max_retries`` times, then counts the request as lost.  Each
retransmission is a fresh :class:`~repro.workloads.base.Request` sharing
the logical request's token, so a late response to an earlier attempt
still satisfies it and any second response is discarded as a duplicate
instead of double-counting the completion.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.net.config import NetConfig
from repro.sim.engine import Simulator
from repro.workloads.base import App, Request
from repro.workloads.synthetic import exponential_ns

#: payload sizes used when a workload has no payload sampler
DEFAULT_PAYLOAD_BYTES = (64, 64)


class _ClientWorkload:
    """One machine's share of one L-app's load."""

    __slots__ = ("app", "service_sampler", "payload_sampler", "conn_ids",
                 "rate_mops", "rng", "next_idx")

    def __init__(self, app: App, service_sampler: Callable[[], int],
                 payload_sampler: Optional[Callable[[], Tuple[int, int]]],
                 conn_ids: List[int], rate_mops: float, rng) -> None:
        self.app = app
        self.service_sampler = service_sampler
        self.payload_sampler = payload_sampler
        self.conn_ids = conn_ids
        self.rate_mops = rate_mops
        self.rng = rng
        self.next_idx = 0


class _Pending:
    """One logical request from send to response / loss."""

    __slots__ = ("machine", "workload", "conn_id", "service_ns", "bytes_in",
                 "bytes_out", "request", "timeout", "attempts", "done")

    def __init__(self, machine: "ClientMachine", workload: _ClientWorkload,
                 conn_id: int, service_ns: int, bytes_in: int,
                 bytes_out: int) -> None:
        self.machine = machine
        self.workload = workload
        self.conn_id = conn_id
        self.service_ns = service_ns
        self.bytes_in = bytes_in
        self.bytes_out = bytes_out
        self.request: Optional[Request] = None
        #: the current attempt's timer on the machine's timeout lane
        self.timeout: Optional[list] = None
        self.attempts = 0
        self.done = False


class ClientMachine:
    """One load-generating machine of the simulated cluster."""

    def __init__(self, sim: Simulator, index: int, fabric,
                 cfg: NetConfig) -> None:
        self.sim = sim
        self.index = index
        self.fabric = fabric
        self.cfg = cfg
        self.workloads: List[_ClientWorkload] = []
        #: retry-budget token bucket (see NetConfig.retry_budget)
        self._retry_tokens = cfg.retry_budget_cap if cfg.retry_budget > 0 \
            else 0.0
        self._backoff_rng = None
        #: every attempt's timeout has the one delay cfg.timeout_ns
        self._timeouts = sim.lane(cfg.timeout_ns, self._timeout)
        # Bound once: the tick reschedules itself per arrival.
        self._open_loop_tick = self._open_loop_tick

    def add_workload(self, workload: _ClientWorkload) -> None:
        self.workloads.append(workload)

    def start(self) -> None:
        for workload in self.workloads:
            if workload.conn_ids and workload.rate_mops > 0:
                self.sim.at(0, self._open_loop_tick, workload)

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------
    def _open_loop_tick(self, workload: _ClientWorkload) -> None:
        conn_id = workload.conn_ids[workload.next_idx]
        workload.next_idx = (workload.next_idx + 1) % len(workload.conn_ids)
        self._send_new(workload, conn_id)
        # The mean gap is 1000.0 / rate_mops ns, recomputed per tick
        # because a flash-crowd trace changes rate_mops mid-run.
        gap = exponential_ns(workload.rng.random,
                             1.0 / (1000.0 / workload.rate_mops))
        self.sim.post(gap, self._open_loop_tick, workload)

    def _send_new(self, workload: _ClientWorkload, conn_id: int) -> None:
        sampler = workload.payload_sampler
        bytes_in, bytes_out = sampler() if sampler is not None \
            else DEFAULT_PAYLOAD_BYTES
        pending = _Pending(self, workload, conn_id,
                           workload.service_sampler(), bytes_in, bytes_out)
        # Every workload's app is registered with the fabric, so its
        # counters are bumped directly (no ledger op to count here).
        app_name = workload.app.name
        self.fabric.stats[app_name]["offered"] += 1
        self.fabric.inflight[app_name] += 1
        if self.cfg.retry_budget > 0:
            self._retry_tokens = min(self.cfg.retry_budget_cap,
                                     self._retry_tokens
                                     + self.cfg.retry_budget)
        self._transmit(pending)

    # ------------------------------------------------------------------
    # Reliability
    # ------------------------------------------------------------------
    def _transmit(self, pending: _Pending) -> None:
        now = self.sim.now
        request = Request(pending.workload.app, now, pending.service_ns,
                          pending.conn_id)
        request.client_send_ns = now
        request.bytes_in = pending.bytes_in
        request.bytes_out = pending.bytes_out
        request.net_token = pending
        pending.request = request
        pending.attempts += 1
        pending.timeout = self._timeouts.arm(pending)
        self.fabric.send_to_server(request)

    def _timeout(self, pending: _Pending) -> None:
        if pending.done:
            return
        self.fabric.bump(pending.workload.app.name, "timeouts",
                         op="client_timeout")
        self._retry_or_lose(pending, backoff_ns=self._backoff_ns(pending, 0))

    def on_drop(self, request: Request) -> None:
        """The fabric observed this packet being lost (link or NIC)."""
        pending: Optional[_Pending] = request.net_token
        if pending is None or pending.done \
                or pending.request is not request:
            return  # a stale attempt; a newer one is already in flight
        self._timeouts.cancel(pending.timeout)  # a no-op once it fired
        self.fabric.bump(pending.workload.app.name, "drops_observed")
        self._retry_or_lose(
            pending,
            backoff_ns=self._backoff_ns(pending,
                                        self.cfg.drop_retry_backoff_ns))

    def on_shed(self, request: Request) -> None:
        """The server's admission control rejected this attempt."""
        pending: Optional[_Pending] = request.net_token
        if pending is None or pending.done \
                or pending.request is not request:
            return
        self._timeouts.cancel(pending.timeout)  # a no-op once it fired
        self._retry_or_lose(
            pending,
            backoff_ns=self._backoff_ns(pending,
                                        self.cfg.drop_retry_backoff_ns))

    def _backoff_ns(self, pending: _Pending, floor_ns: int) -> int:
        """Retransmission delay before attempt ``pending.attempts + 1``.

        With ``backoff_base_ns == 0`` (the default) this returns
        ``floor_ns`` unchanged, so legacy timing is byte-identical.
        """
        cfg = self.cfg
        if cfg.backoff_base_ns <= 0:
            return floor_ns
        delay = min(float(cfg.backoff_max_ns),
                    cfg.backoff_base_ns
                    * cfg.backoff_factor ** max(0, pending.attempts - 1))
        if cfg.backoff_jitter > 0.0:
            if self._backoff_rng is None:
                self._backoff_rng = self.fabric.rngs.stream(
                    f"{cfg.stream_prefix()}/backoff/{self.index}")
            # rng.uniform(0.0, delay * jitter) without its frame: the
            # stdlib's a + (b - a) * random() with a = 0.0 is exactly
            # b * random() for the non-negative b here.
            delay += delay * cfg.backoff_jitter * self._backoff_rng.random()
        return max(floor_ns, int(delay))

    def _retry_or_lose(self, pending: _Pending, backoff_ns: int) -> None:
        app_name = pending.workload.app.name
        if pending.attempts > self.cfg.max_retries:
            pending.done = True
            self.fabric.bump(app_name, "losses", op="client_loss")
            self.fabric.inflight[app_name] -= 1
            return
        if self.cfg.retry_budget > 0:
            if self._retry_tokens < 1.0:
                # Budget exhausted: shedding the retry locally beats
                # amplifying an already-overloaded server.
                pending.done = True
                self.fabric.bump(app_name, "retries_suppressed",
                                 op="retry_suppressed")
                self.fabric.bump(app_name, "losses", op="client_loss")
                self.fabric.inflight[app_name] -= 1
                return
            self._retry_tokens -= 1.0
        self.fabric.bump(app_name, "retries", op="client_retry")
        if backoff_ns > 0:
            if self.cfg.backoff_base_ns > 0:
                self.fabric.add(app_name, "backoff_ns", backoff_ns)
            self.sim.post(backoff_ns, self._retransmit, pending)
        else:
            self._retransmit(pending)

    def _retransmit(self, pending: _Pending) -> None:
        if pending.done:
            return  # an earlier attempt's response beat the backoff
        self._transmit(pending)

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def on_response(self, request: Request) -> None:
        pending: _Pending = request.net_token
        app_name = pending.workload.app.name
        if pending.done:
            # A retransmitted copy also completed server-side; the
            # logical request was already satisfied — never count twice.
            self.fabric.bump(app_name, "dup_responses", op="dup_response")
            return
        pending.done = True
        self._timeouts.cancel(pending.timeout)  # a no-op once it fired
        assert request.client_send_ns is not None
        fabric = self.fabric
        fabric.record_latency(app_name, self.sim.now - request.client_send_ns)
        fabric.stats[app_name]["completed"] += 1
        fabric.inflight[app_name] -= 1
