"""Userspace interrupts (Intel Uintr, §2.2).

The model mirrors the architectural objects:

* each receiver holds a :class:`Upid` (User Posted Interrupt Descriptor)
  with a posted-interrupt request bitmap and a notification flag;
* each sender holds a UITT (User Interrupt Target Table) of
  :class:`UittEntry` rows mapping an index to a (UPID, vector) pair;
* ``senduipi <index>`` posts the vector into the target UPID and, if the
  receiver is currently running in user mode, delivers it after the
  hardware delivery latency — the receiver's registered handler runs and
  finishes with ``uiret``;
* if the receiver is in the kernel or context-switched out, delivery is
  *deferred* until it next returns to user mode (§2.2), which the core
  model signals via :meth:`UintrController.on_user_resume`.
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
    #: suppress notification (receiver not running in user mode)
    suppressed: bool = True
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
        self.deferred: int = 0
        self.dropped: int = 0
        self.delayed: int = 0
        #: optional fault-injection hook consulted on every senduipi
        #: (see :data:`UintrInjectHook`); ``None`` means no injection
        self.inject: Optional[UintrInjectHook] = None
        # Charge handles for the per-interrupt hot path; rebuilt lazily
        # because Machine.attach_ledger reassigns self.ledger after
        # construction.
        self._send_handle = None
        self._deliver_handle = None
        self._handles_ledger = None

    def _charge_handles(self):
        if self._handles_ledger is not self.ledger:
            self._send_handle = self.ledger.handle("hw", "uintr_send")
            self._deliver_handle = self.ledger.handle("hw", "uintr_deliver")
            self._handles_ledger = self.ledger
        return self._send_handle, self._deliver_handle

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

    def on_user_resume(self, receiver_id: int) -> None:
        """Receiver returned to user mode: deliver any deferred vectors."""
        upid = self._upids.get(receiver_id)
        if upid is None:
            return
        upid.suppressed = False
        if upid.pending:
            self.sim.post(self.costs.uintr_deliver_ns, self._deliver, upid)

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
        """Post an interrupt through UITT entry ``index``.

        If the receiver is running in user mode, the handler fires after
        the hardware delivery latency; otherwise the vector stays posted
        in the UPID until :meth:`on_user_resume`.
        """
        table = self._uitts.get(sender_id)
        if table is None or not 0 <= index < len(table):
            raise IndexError(f"sender {sender_id} has no UITT entry {index}")
        entry = table[index]
        entry.upid.post(entry.vector)
        self.sent += 1
        if self.ledger.enabled:
            send, _ = self._charge_handles()
            send.charge(self.costs.uintr_send_ns, sender_id)
        if entry.upid.suppressed:
            self.deferred += 1
            return
        extra_ns = 0
        if self.inject is not None:
            disposition = self.inject(sender_id, entry.upid.receiver_id,
                                      entry.vector)
            if disposition == UINTR_DROP:
                # The notification is lost in flight; the vector stays
                # posted in the PIR, so a later senduipi (or user resume)
                # still finds and delivers it.
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
        if upid.suppressed or not upid.pending:
            # The receiver left user mode (or was already drained) between
            # posting and delivery; the vector stays pending.
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
                _, deliver = self._charge_handles()
                deliver.charge(self.costs.uintr_deliver_ns, upid.receiver_id)
            handler(vector)
