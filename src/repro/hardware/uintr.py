"""Userspace interrupts (Intel Uintr, §2.2).

The model mirrors the architectural objects:

* each receiver holds a :class:`Upid` (User Posted Interrupt Descriptor)
  with a posted-interrupt request bitmap;
* each sender holds a UITT (User Interrupt Target Table) of
  :class:`UittEntry` rows mapping an index to a (UPID, vector) pair;
* ``senduipi <index>`` posts the vector into the target UPID and
  delivers it after the hardware delivery latency — the receiver's
  registered handler runs and finishes with ``uiret``.

The model has no user-mode suppression: a receiver registered with
:meth:`UintrController.register_handler` takes every notification.  A
vector stays posted in the UPID only while its notification is in
flight or was dropped by the fault-injection hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim.engine import Simulator
from repro.hardware.timing import CostModel
from repro.obs.ledger import NULL_LEDGER, OpLedger

VECTOR_COUNT = 64

#: sentinel an inject hook returns to lose a notification (the vector
#: stays posted in the UPID; only the doorbell is dropped)
UINTR_DROP = -1

#: handler(vector) -> None; runs on the receiver core in user mode
UintrHandler = Callable[[int], None]

#: inject(sender_id, receiver_id, vector) -> None (normal delivery),
#: UINTR_DROP (drop the notification), or extra delay in ns (>= 0)
UintrInjectHook = Callable[[int, int, int], Optional[int]]


@dataclass
class Upid:
    """User Posted Interrupt Descriptor for one receiver context."""

    receiver_id: int
    #: posted-but-undelivered vectors (the PIR bitmap)
    pending: int = 0
    handler: Optional[UintrHandler] = None

    def post(self, vector: int) -> None:
        if not 0 <= vector < VECTOR_COUNT:
            raise ValueError(f"vector out of range: {vector}")
        self.pending |= 1 << vector

    def drain(self) -> List[int]:
        # Bit-scan instead of probing all 64 vector positions: almost
        # every delivery drains exactly one pending vector.  Order is
        # ascending, same as the probe loop.
        pending = self.pending
        self.pending = 0
        vectors = []
        while pending:
            low = pending & -pending
            vectors.append(low.bit_length() - 1)
            pending ^= low
        return vectors


@dataclass
class UittEntry:
    """One row of a sender's User Interrupt Target Table."""

    upid: Upid
    vector: int


class UintrController:
    """Send/receive machinery shared by all cores of a machine.

    Receivers register with :meth:`register_handler` (the
    ``uintr_register_handler()`` syscall analogue); senders build UITT
    entries with :meth:`register_sender` and fire with :meth:`senduipi`.
    """

    def __init__(self, sim: Simulator, costs: CostModel,
                 ledger: Optional[OpLedger] = None) -> None:
        self.sim = sim
        self.costs = costs
        self.ledger = ledger or NULL_LEDGER
        self._upids: Dict[int, Upid] = {}
        self._uitts: Dict[int, List[UittEntry]] = {}
        self.sent: int = 0
        self.delivered: int = 0
        self.dropped: int = 0
        self.delayed: int = 0
        #: optional fault-injection hook consulted on every senduipi
        #: (see :data:`UintrInjectHook`); ``None`` means no injection
        self.inject: Optional[UintrInjectHook] = None
        # Charge handles for the per-interrupt hot path.
        self._send_handle = self.ledger.handle("hw", "uintr_send")
        self._deliver_handle = self.ledger.handle("hw", "uintr_deliver")

    # ---------------------------------------------------------------
    # Receiver side
    # ---------------------------------------------------------------
    def register_handler(self, receiver_id: int, handler: UintrHandler) -> Upid:
        upid = self._upids.get(receiver_id)
        if upid is None:
            upid = Upid(receiver_id=receiver_id)
            self._upids[receiver_id] = upid
        upid.handler = handler
        return upid

    def upid_of(self, receiver_id: int) -> Upid:
        upid = self._upids.get(receiver_id)
        if upid is None:
            raise KeyError(f"receiver {receiver_id} has no registered UPID")
        return upid

    # ---------------------------------------------------------------
    # Sender side
    # ---------------------------------------------------------------
    def register_sender(self, sender_id: int, receiver_id: int, vector: int) -> int:
        """Create a UITT entry for ``sender_id``; returns its index."""
        upid = self.upid_of(receiver_id)
        table = self._uitts.setdefault(sender_id, [])
        table.append(UittEntry(upid=upid, vector=vector))
        return len(table) - 1

    def senduipi(self, sender_id: int, index: int) -> None:
        """Post an interrupt through UITT entry ``index``; the receiver's
        handler fires after the hardware delivery latency."""
        table = self._uitts.get(sender_id)
        if table is None or not 0 <= index < len(table):
            raise IndexError(f"sender {sender_id} has no UITT entry {index}")
        entry = table[index]
        entry.upid.post(entry.vector)
        self.sent += 1
        if self.ledger.enabled:
            self._send_handle.charge(self.costs.uintr_send_ns, sender_id)
        extra_ns = 0
        if self.inject is not None:
            disposition = self.inject(sender_id, entry.upid.receiver_id,
                                      entry.vector)
            if disposition == UINTR_DROP:
                # The notification is lost in flight; the vector stays
                # posted in the PIR, so a later senduipi still finds and
                # delivers it.
                self.dropped += 1
                if self.ledger.enabled:
                    self.ledger.charge("fault:uintr_drop", 0,
                                       core=entry.upid.receiver_id,
                                       domain="fault")
                return
            if disposition is not None and disposition > 0:
                self.delayed += 1
                extra_ns = disposition
                if self.ledger.enabled:
                    self.ledger.charge("fault:uintr_delay", extra_ns,
                                       core=entry.upid.receiver_id,
                                       domain="fault")
        self.sim.post(
            self.costs.uintr_send_ns + self.costs.uintr_deliver_ns + extra_ns,
            self._deliver,
            entry.upid,
        )

    # ---------------------------------------------------------------
    def _deliver(self, upid: Upid) -> None:
        if not upid.pending:
            # An earlier delivery already drained it: a retry after a
            # dropped notification, or two posts in the same instant.
            return
        handler = upid.handler
        vectors = upid.drain()
        if handler is None:
            raise RuntimeError(
                f"uintr delivered to receiver {upid.receiver_id} "
                "with no registered handler"
            )
        for vector in vectors:
            self.delivered += 1
            if self.ledger.enabled:
                self._deliver_handle.charge(self.costs.uintr_deliver_ns,
                                            upid.receiver_id)
            handler(vector)
