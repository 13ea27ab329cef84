"""One direction of the testbed link, with bandwidth serialization.

A 100 Gbps port is not a constant per-packet delay: packets serialize
one at a time at ``8 / gbps`` ns per byte, so a burst queues behind the
wire and the queueing shows up in client-observed latency.  The model is
a single FIFO serializer per direction (the server port is the shared
bottleneck for all four client machines, exactly as on the testbed)
followed by a fixed propagation delay.

Transfer costs are charged to the operation ledger under the ``net``
domain (op ``link_tx``, cost = serialization time), so ``--op-breakdown``
shows per-packet wire costs next to the scheduler's switch costs.

Fault injection: an installed ``inject`` hook is consulted per packet and
may return :data:`LINK_DROP` (the packet is lost; the sender-side
``on_drop`` callback fires so clients can retransmit) or a non-negative
extra delay in nanoseconds.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.obs.ledger import NULL_LEDGER, OpLedger
from repro.sim.engine import Simulator
from repro.workloads.base import Request

#: ``inject`` return value meaning "lose this packet"
LINK_DROP = -1


class Link:
    """A one-directional serializing link (one side of the full-duplex
    port)."""

    def __init__(self, sim: Simulator, name: str, gbps: float = 100.0,
                 propagation_ns: int = 500,
                 ledger: Optional[OpLedger] = None,
                 on_drop: Optional[Callable[[Request], None]] = None) -> None:
        if gbps <= 0:
            raise ValueError(f"bandwidth must be positive: {gbps}")
        if propagation_ns < 0:
            raise ValueError(f"negative propagation {propagation_ns}")
        self.sim = sim
        self.name = name
        self.gbps = gbps
        self.propagation_ns = propagation_ns
        self.ledger = ledger or NULL_LEDGER
        self.on_drop = on_drop
        #: fault hook: fn(request, nbytes) -> None | LINK_DROP | delay_ns
        self.inject: Optional[Callable[[Request, int], Optional[int]]] = None
        #: when the serializer finishes its current backlog
        self._busy_until = 0
        #: nbytes -> serialization_ns(nbytes); payload sizes repeat, so
        #: this holds a few dozen entries
        self._ser_ns: Dict[int, int] = {}
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    def serialization_ns(self, nbytes: int) -> int:
        """Wire time for ``nbytes`` at this link's bandwidth (>= 1 ns)."""
        ser = self._ser_ns.get(nbytes)
        if ser is None:
            ser = self._ser_ns[nbytes] = max(1, round(nbytes * 8 / self.gbps))
        return ser

    # ------------------------------------------------------------------
    def send(self, request: Request, nbytes: int,
             deliver: Callable[[Request], None]) -> bool:
        """Put one packet on the wire; ``deliver`` fires at the far end.

        Returns False when a fault disposition dropped the packet (the
        ``on_drop`` callback has already run by then).
        """
        extra = 0
        if self.inject is not None:
            disposition = self.inject(request, nbytes)
            if disposition == LINK_DROP:
                self.dropped += 1
                if self.ledger.enabled:
                    self.ledger.count_op("link_drop", domain="net")
                if self.on_drop is not None:
                    self.on_drop(request)
                return False
            if disposition is not None:
                extra = disposition
        ser = self._ser_ns.get(nbytes) or self.serialization_ns(nbytes)
        now = self.sim.now
        self._busy_until = busy = max(now, self._busy_until) + ser
        self.tx_packets += 1
        self.tx_bytes += nbytes
        if self.ledger.enabled:
            self.ledger.charge("link_tx", ser, domain="net")
        # Nothing cancels a delivery, so it needs no Event handle.
        self.sim.post(busy + self.propagation_ns + extra - now,
                      deliver, request)
        return True
