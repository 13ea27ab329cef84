"""Configuration of the simulated client/network testbed.

The defaults mirror the paper's evaluation setup: four client machines
driving the server over a single 100 Gbps ConnectX-5 port.  One
:class:`NetConfig` parameterizes the whole fabric — both link directions,
the multi-queue NIC, and the client generators — so an experiment turns
the network on with ``cfg.scaled(net=NetConfig())`` (or ``--net``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.units import MS, US


@dataclass(frozen=True)
class NetConfig:
    """Knobs of the simulated cluster fabric."""

    #: port bandwidth per direction (the ConnectX-5 testbed link)
    gbps: float = 100.0
    #: one-way wire + switch propagation (each direction)
    propagation_ns: int = 500
    #: per-packet NIC processing + DMA into an RX ring
    nic_ns: int = 600
    #: Ethernet + IP + TCP framing added to every payload
    header_bytes: int = 66
    #: RX rings on the server NIC; 0 means one ring per worker core
    rings: int = 0
    #: per-ring capacity (packets) before RSS overflow drops
    ring_capacity: int = 256
    #: number of client machines the offered load is spread over
    clients: int = 4
    #: client-side response timeout before a retransmission
    timeout_ns: int = 2 * MS
    #: retransmissions per logical request before it counts as lost
    max_retries: int = 1
    #: backoff before retransmitting an *observed* drop (loss callbacks
    #: fire long before the timeout would)
    drop_retry_backoff_ns: int = 5 * US
    #: exponential retry backoff: attempt k waits
    #: ``backoff_base_ns * backoff_factor**(k-1)`` (clamped to
    #: ``backoff_max_ns``) plus up to ``backoff_jitter`` of itself in
    #: seeded jitter.  0 disables it and preserves the legacy behavior
    #: (immediate retry on timeout, fixed ``drop_retry_backoff_ns`` on
    #: an observed drop) byte-for-byte.
    backoff_base_ns: int = 0
    backoff_factor: float = 2.0
    backoff_max_ns: int = 1 * MS
    backoff_jitter: float = 0.0
    #: per-machine retry budget (token bucket): each *new* logical
    #: request earns ``retry_budget`` tokens (capped at
    #: ``retry_budget_cap``); a retransmission spends one.  An empty
    #: bucket converts the retry into a loss (counted
    #: ``retries_suppressed``) — this is what stops retry storms from
    #: amplifying overload.  0 disables budgeting (legacy behavior).
    retry_budget: float = 0.0
    retry_budget_cap: float = 10.0
    #: identity of the server machine this fabric fronts.  ``None`` (the
    #: single-server default) keeps the historical global stream names
    #: (``net/rss``, ``net/arrivals/...``) byte-for-byte; a fleet run
    #: (``repro.cluster``) must set a distinct id per server so that two
    #: fabrics sharing one ``RngStreams`` never collide on a stream name
    #: (colliding names would entangle the servers' randomness).
    server_id: Optional[int] = None

    def num_rings(self, num_workers: int) -> int:
        return self.rings if self.rings > 0 else max(1, num_workers)

    def stream_prefix(self) -> str:
        """Namespace for this fabric's RNG stream names."""
        if self.server_id is None:
            return "net"
        return f"net/server{self.server_id}"
