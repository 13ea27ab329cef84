"""The server's multi-queue NIC with RSS connection steering.

Instead of one software queue per application, the NIC owns a set of
per-core RX rings (:class:`NicRxQueue`, each keeping the depth /
oldest-arrival signals the scheduler reads).  A connection is steered
onto a ring by an RSS-style hash of ``(app, conn_id)`` keyed with a
value drawn from the run's seeded RNG streams — identical seeds steer
identically, different seeds spread connections differently, and one
connection's packets never reorder across rings.

Ring operations charge the ledger under the ``net`` domain (``nic_rx``
per delivered packet, ``nic_drop`` per overflow), and overflow drops are
surfaced to the fabric's drop callback so clients observe the loss.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.ledger import NULL_LEDGER, OpLedger
from repro.sim.engine import Simulator
from repro.workloads.base import Request

DEFAULT_NIC_LATENCY_NS = 600      # wire + NIC + DMA into the RX ring
DEFAULT_RING_CAPACITY = 4096


class NicRxQueue:
    """One bounded userspace RX ring (§5.2.5).

    Requests arrive after a small wire+NIC latency; overflow packets are
    dropped and counted (what an overwhelmed 100 Gbps port does).
    ``on_drop`` lets the submitting side *observe* overflow losses (the
    network clients retry on it) instead of inferring them from the
    ``dropped`` counter after the fact.
    """

    def __init__(self, sim: Simulator, deliver: Callable[[Request], None],
                 latency_ns: int = DEFAULT_NIC_LATENCY_NS,
                 capacity: int = DEFAULT_RING_CAPACITY,
                 ledger: Optional[OpLedger] = None,
                 on_drop: Optional[Callable[[Request], None]] = None) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.sim = sim
        self.deliver = deliver
        self.latency_ns = latency_ns
        self.capacity = capacity
        self.ledger = ledger or NULL_LEDGER
        self.on_drop = on_drop
        self.in_flight = 0
        self.received = 0
        self.dropped = 0
        #: enqueue timestamps of in-flight packets, oldest first (the
        #: "software queues exposed to the scheduler" depth/age signals)
        self._pending_since: Deque[int] = deque()
        # Bound once: every accepted packet schedules it.
        self._arrive = self._arrive

    @property
    def depth(self) -> int:
        """Current ring occupancy (the scheduler's queue-depth signal)."""
        return self.in_flight

    def oldest_wait_ns(self, now: int) -> int:
        """Age of the oldest packet still sitting in the ring."""
        if not self._pending_since:
            return 0
        return now - self._pending_since[0]

    def client_submit(self, request: Request) -> bool:
        """Enqueue one packet; False if the ring overflowed."""
        if self.in_flight >= self.capacity:
            self.dropped += 1
            if self.ledger.enabled:
                self.ledger.count_op("nic_drop", domain="net")
            if self.on_drop is not None:
                self.on_drop(request)
            return False
        self.in_flight += 1
        self._pending_since.append(self.sim.now)
        self.sim.post(self.latency_ns, self._arrive, request)
        return True

    def _arrive(self, request: Request) -> None:
        self.in_flight -= 1
        self._pending_since.popleft()
        self.received += 1
        if self.ledger.enabled:
            # The per-packet NIC processing + DMA time is a real cost the
            # breakdown should attribute, not just count.
            self.ledger.charge("nic_rx", self.latency_ns, domain="net")
        # Arrival time is when the server can first see the packet.
        request.arrival_ns = self.sim.now
        self.deliver(request)


class Nic:
    """RSS steering over a fixed set of bounded RX rings.

    ``deliver`` may be None until :meth:`deliver_to` names the intake
    (the fabric builds its NIC before it connects a system).
    """

    def __init__(self, sim: Simulator,
                 deliver: Optional[Callable[[Request], None]],
                 num_rings: int, ring_capacity: int = 256,
                 nic_ns: int = 600, rss_key: int = 0,
                 ledger: Optional[OpLedger] = None,
                 on_drop: Optional[Callable[[Request], None]] = None) -> None:
        if num_rings <= 0:
            raise ValueError(f"need at least one ring: {num_rings}")
        self.sim = sim
        self.rss_key = rss_key
        self.rings: List[NicRxQueue] = [
            NicRxQueue(sim, deliver, latency_ns=nic_ns,
                       capacity=ring_capacity, ledger=ledger,
                       on_drop=on_drop)
            for _ in range(num_rings)
        ]
        #: (app_name, conn_id) -> its ring, memoized (flows are sticky)
        self._steering: Dict[Tuple[str, int], NicRxQueue] = {}

    # ------------------------------------------------------------------
    def ring_for(self, app_name: str, conn_id: int) -> int:
        """Deterministic RSS hash of the connection's flow tuple."""
        digest = hashlib.sha256(
            f"{self.rss_key}/{app_name}/{conn_id}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") % len(self.rings)

    def rx(self, request: Request) -> bool:
        """Steer one arriving packet onto its ring; False on overflow."""
        flow = (request.app.name, request.conn_id)
        ring = self._steering.get(flow)
        if ring is None:
            ring = self._steering[flow] = self.rings[self.ring_for(*flow)]
        return ring.client_submit(request)

    def deliver_to(self, deliver: Callable[[Request], None]) -> None:
        """Point every ring's delivery at ``deliver``."""
        for ring in self.rings:
            ring.deliver = deliver

    # ------------------------------------------------------------------
    # Aggregate signals and counters
    # ------------------------------------------------------------------
    def ring_depth(self, index: int) -> int:
        return self.rings[index].depth

    def oldest_wait_ns(self, now: int) -> int:
        """Age of the oldest packet across every ring."""
        waits = [ring.oldest_wait_ns(now) for ring in self.rings]
        return max(waits) if waits else 0

    @property
    def received(self) -> int:
        return sum(ring.received for ring in self.rings)

    @property
    def dropped(self) -> int:
        return sum(ring.dropped for ring in self.rings)
