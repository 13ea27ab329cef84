"""A shared memory-bandwidth model (max-min fair processor sharing).

Memory-intensive work (membench's memory phases, cache-miss traffic) is
modeled as :class:`Transfer` objects that drain through a :class:`MemoryBus`
of fixed capacity.  Each transfer has an intrinsic *demand rate* (what one
core could consume alone); concurrent transfers share the bus by max-min
fairness (water-filling), and per-tag rate caps let the regulation
baselines (Intel MBA, cgroups) and VESSEL's scheduler throttle a tenant.

Whenever the active set or a cap changes, progress is settled at the old
rates and completion events are rescheduled at the new ones — the standard
processor-sharing discrete-event pattern.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim.engine import Event, Simulator


class Transfer:
    """An in-flight bulk memory stream."""

    __slots__ = (
        "tag", "total_bytes", "remaining", "demand_rate", "on_done",
        "rate", "last_update", "_done_event", "started_at",
    )

    def __init__(self, tag: str, total_bytes: float, demand_rate: float,
                 on_done: Optional[Callable[[], None]]) -> None:
        self.tag = tag
        self.total_bytes = float(total_bytes)
        self.remaining = float(total_bytes)
        self.demand_rate = float(demand_rate)
        self.on_done = on_done
        self.rate = 0.0
        self.last_update = 0
        self._done_event: Optional[Event] = None
        self.started_at = 0


class MemoryBus:
    """Fixed-capacity bus with max-min fair sharing and per-tag caps.

    Rates are bytes per nanosecond.  ``capacity_gbps`` is gigabytes per
    second for config readability (1 GB/s == 1 byte/ns).
    """

    def __init__(self, sim: Simulator, capacity_gbps: float) -> None:
        if capacity_gbps <= 0:
            raise ValueError(f"capacity must be positive: {capacity_gbps}")
        self.sim = sim
        self.capacity = float(capacity_gbps)  # bytes/ns
        self._active: List[Transfer] = []
        self._caps: Dict[str, float] = {}
        self.bytes_by_tag: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def set_tag_cap(self, tag: str, rate_gbps: Optional[float]) -> None:
        """Cap (or uncap, with None) the aggregate rate of a tag."""
        if rate_gbps is None:
            self._caps.pop(tag, None)
        else:
            if rate_gbps < 0:
                raise ValueError(f"negative cap {rate_gbps}")
            self._caps[tag] = float(rate_gbps)
        self._reschedule()

    def start_transfer(self, tag: str, total_bytes: float,
                       demand_rate_gbps: float,
                       on_done: Optional[Callable[[], None]] = None) -> Transfer:
        """Begin a stream of ``total_bytes`` with demand ``demand_rate_gbps``."""
        if total_bytes <= 0:
            raise ValueError(f"transfer size must be positive: {total_bytes}")
        if demand_rate_gbps <= 0:
            raise ValueError(f"demand rate must be positive: {demand_rate_gbps}")
        transfer = Transfer(tag, total_bytes, demand_rate_gbps, on_done)
        transfer.last_update = self.sim.now
        transfer.started_at = self.sim.now
        self._active.append(transfer)
        self._reschedule()
        return transfer

    def cancel_transfer(self, transfer: Transfer) -> float:
        """Abort a stream; returns the bytes that remained untransferred."""
        if transfer not in self._active:
            return 0.0
        self._settle()
        if transfer._done_event is not None:
            transfer._done_event.cancel()
        self._active.remove(transfer)
        remaining = transfer.remaining
        self._reschedule()
        return remaining

    def consumed_bytes(self, tag: str) -> float:
        """Total bytes ``tag`` has moved so far (progress settled first)."""
        self._settle()
        return self.bytes_by_tag.get(tag, 0.0)

    def utilization(self) -> float:
        """Current allocated-rate utilization in [0, 1]."""
        if not self._active:
            return 0.0
        return min(1.0, sum(t.rate for t in self._active) / self.capacity)

    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Advance every active transfer's progress to ``now``."""
        now = self.sim.now
        for transfer in self._active:
            elapsed = now - transfer.last_update
            if elapsed > 0 and transfer.rate > 0:
                moved = min(transfer.remaining, transfer.rate * elapsed)
                transfer.remaining -= moved
                self.bytes_by_tag[transfer.tag] = (
                    self.bytes_by_tag.get(transfer.tag, 0.0) + moved
                )
            transfer.last_update = now

    def _allocate(self) -> None:
        """Max-min fair allocation honouring demands and per-tag caps.

        Tag caps are enforced by first water-filling capacity across tags
        (capped tags get at most their cap), then across transfers inside
        each tag.
        """
        by_tag: Dict[str, List[Transfer]] = {}
        for transfer in self._active:
            by_tag.setdefault(transfer.tag, []).append(transfer)

        # Tag-level demand = sum of member demands, clipped by the cap.
        tag_demand = {
            tag: min(sum(t.demand_rate for t in members),
                     self._caps.get(tag, float("inf")))
            for tag, members in by_tag.items()
        }
        tag_share = _water_fill(tag_demand, self.capacity)

        for tag, members in by_tag.items():
            member_demand = {id(t): t.demand_rate for t in members}
            member_share = _water_fill(member_demand, tag_share[tag])
            for transfer in members:
                transfer.rate = member_share[id(transfer)]

    def _reschedule(self) -> None:
        self._settle()
        self._allocate()
        now = self.sim.now
        finished: List[Transfer] = []
        for transfer in self._active:
            if transfer._done_event is not None:
                transfer._done_event.cancel()
                transfer._done_event = None
            if transfer.remaining <= 1e-9:
                finished.append(transfer)
            elif transfer.rate > 0:
                eta = int(transfer.remaining / transfer.rate) + 1
                transfer._done_event = self.sim.at(
                    now + eta, self._finish, transfer
                )
            # rate == 0 (fully throttled): no completion until rates change
        for transfer in finished:
            self._complete(transfer)

    def _finish(self, transfer: Transfer) -> None:
        transfer._done_event = None
        self._settle()
        if transfer.remaining > 1e-9:
            # Rounding left a sliver; resettle shortly.
            self._reschedule()
            return
        self._complete(transfer)

    def _complete(self, transfer: Transfer) -> None:
        if transfer in self._active:
            self._active.remove(transfer)
        self._reschedule_if_active()
        if transfer.on_done is not None:
            transfer.on_done()

    def _reschedule_if_active(self) -> None:
        if self._active:
            self._reschedule()


def _water_fill(demands: Dict, capacity: float) -> Dict:
    """Classic max-min fair water-filling.

    Returns ``{key: share}`` with ``share <= demand`` and
    ``sum(shares) <= capacity``; unmet capacity is redistributed to
    still-unsatisfied demanders equally until all are satisfied or the
    capacity is exhausted.
    """
    shares = {key: 0.0 for key in demands}
    unsatisfied = {key: demand for key, demand in demands.items() if demand > 0}
    remaining = capacity
    while unsatisfied and remaining > 1e-12:
        level = remaining / len(unsatisfied)
        satisfied = [k for k, d in unsatisfied.items() if d <= level]
        if not satisfied:
            for key in unsatisfied:
                shares[key] += level
            remaining = 0.0
            break
        for key in satisfied:
            shares[key] += unsatisfied[key]
            remaining -= unsatisfied.pop(key)
    return shares


class BandwidthMeter:
    """Windowed bandwidth measurement over a bus tag.

    VESSEL's scheduler and the regulation baselines sample consumption in
    fixed windows; this helper snapshots :meth:`MemoryBus.consumed_bytes`
    and converts deltas to GB/s.
    """

    def __init__(self, bus: MemoryBus, tag: str) -> None:
        self.bus = bus
        self.tag = tag
        self._last_bytes = bus.consumed_bytes(tag)
        self._last_time = bus.sim.now

    def sample_gbps(self) -> float:
        """GB/s consumed by the tag since the previous sample."""
        now = self.bus.sim.now
        total = self.bus.consumed_bytes(self.tag)
        elapsed = now - self._last_time
        delta = total - self._last_bytes
        self._last_bytes = total
        self._last_time = now
        if elapsed <= 0:
            return 0.0
        return delta / elapsed  # bytes/ns == GB/s
