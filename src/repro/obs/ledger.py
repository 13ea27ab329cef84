"""The operation ledger: one charging chokepoint for every modeled cost.

Every layer of the reproduction — hardware controllers, the syscall
layer, the userspace switch, the VESSEL runtime and scheduler — charges
its operations through one :class:`OpLedger`::

    ledger.charge("wrpkru", costs.wrpkru_ns, core=core.id, domain="hw")

instead of privately accumulating ``total += self.costs.xxx_ns``.  That
gives the repo a single place to answer the question every performance
claim in the paper reduces to: *which operations ran on the switch path
and what did each cost* (Table 1, Figures 1-3).

Domains are free-form strings; the conventional ones are ``hw``,
``syscall``, ``kernel``, ``uproc``, and ``vessel``, plus two for the
failure model: ``fault`` rows count injected faults
(``fault:uintr_drop``, ``fault:uproc_crash``, ...) and ``fallback`` rows
count the degraded recovery paths the containment machinery took
(``fallback:kernel_ipi``, ``fallback:sched_restart``, ...), so a
breakdown shows not just that a run degraded but which mechanism
absorbed the damage.

The ledger keeps, per ``(domain, op)``, a
:class:`~repro.obs.hist.LogHistogram` of the charged costs: the
operation count, exact total nanoseconds, and log buckets (8 per power
of two, so relative error is bounded by 12.5 %) from which
P50/P99/P99.9 are derived without storing samples.  A charge's core
reaches only the captured events of the Chrome trace export.

Zero-overhead disablement: components default to the shared
:data:`NULL_LEDGER`, whose ``charge``/``count_op`` are empty methods and
whose ``enabled`` flag lets hot paths skip even argument construction::

    if self.ledger.enabled:
        self.ledger.charge(...)

Exports: :meth:`OpLedger.breakdown_table` renders the per-op text table
(the ``--op-breakdown`` flag), and :meth:`OpLedger.chrome_events`
gives the captured charges' Chrome ``trace_event`` rows, which
:func:`repro.obs.write_chrome_trace` merges with the other recorders'
into one file loadable in ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.hist import LogHistogram


class OpLedger:
    """Per-operation cost accounting shared by every layer.

    ``sim`` (optional) timestamps captured events; ``capture_events``
    additionally records one event per charge (bounded by
    ``max_events``) for the Chrome trace export.
    """

    enabled = True

    def __init__(self, sim=None, capture_events: bool = False,
                 max_events: int = 200_000) -> None:
        self.sim = sim
        self.max_events = max_events
        self.capture_events = capture_events
        self._stats: Dict[Tuple[str, str], LogHistogram] = {}
        #: bumped by reset(); lets ChargeHandles notice their stat is stale
        self._generation = 0
        #: captured (ts_ns, core, domain, op, cost_ns) rows
        self.events: List[Tuple[int, Optional[int], str, str, int]] = []
        self.events_dropped = 0

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge(self, op: str, cost_ns: int, core: Optional[int] = None,
               domain: str = "misc") -> None:
        """Record ``cost_ns`` of operation ``op`` (``core`` goes into the
        captured event, if any)."""
        stat = self._stats.get((domain, op))
        if stat is None:
            stat = self._stats[(domain, op)] = LogHistogram()
        stat.record(cost_ns)
        if self.capture_events:
            self._capture(core, domain, op, cost_ns)

    def count_op(self, op: str, core: Optional[int] = None,
                 domain: str = "misc") -> None:
        """Count an operation that carries no modeled latency of its own."""
        self.charge(op, 0, core=core, domain=domain)

    def handle(self, domain: str, op: str) -> "ChargeHandle":
        """A precomputed charging handle for one ``(domain, op)`` pair.

        Hot call sites (the userspace switch, Uintr delivery) charge the
        same few ops millions of times per run; a handle binds the
        underlying stat once so the per-charge cost is one method call
        instead of tuple construction plus a dict lookup.  Handles
        survive :meth:`reset` — they re-bind lazily via a generation
        check — and total exactly as :meth:`charge` does (the invariant
        ``tests/obs`` pins down).
        """
        return ChargeHandle(self, domain, op)

    def _stat_for(self, domain: str, op: str) -> LogHistogram:
        stat = self._stats.get((domain, op))
        if stat is None:
            stat = self._stats[(domain, op)] = LogHistogram()
        return stat

    def _capture(self, core: Optional[int], domain: str, op: str,
                 cost_ns: int) -> None:
        if len(self.events) < self.max_events:
            now = self.sim.now if self.sim is not None else 0
            self.events.append((now, core, domain, op, cost_ns))
        else:
            self.events_dropped += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def op_count(self, op: str, domain: Optional[str] = None) -> int:
        return sum(stat.count for (dom, name), stat in self._stats.items()
                   if name == op and (domain is None or dom == domain))

    def total_ns(self, domain: Optional[str] = None,
                 op: Optional[str] = None) -> int:
        return sum(stat.total_ns for (dom, name), stat in self._stats.items()
                   if (domain is None or dom == domain)
                   and (op is None or name == op))

    def op_counts(self, domain: Optional[str] = None) -> Dict[str, int]:
        """op -> count, merged across matching domains."""
        out: Dict[str, int] = {}
        for (dom, name), stat in self._stats.items():
            if domain is None or dom == domain:
                out[name] = out.get(name, 0) + stat.count
        return out

    def percentile_ns(self, op: str, pct: float,
                      domain: Optional[str] = None) -> float:
        merged = LogHistogram()
        for (dom, name), stat in self._stats.items():
            if name == op and (domain is None or dom == domain):
                merged.merge(stat)
        return merged.percentile_ns(pct)

    def rows(self) -> Iterable[Tuple[str, str, LogHistogram]]:
        """(domain, op, stat) rows in deterministic (domain, op) order."""
        for (dom, name) in sorted(self._stats):
            yield dom, name, self._stats[(dom, name)]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._stats.clear()
        self._generation += 1
        self.events.clear()
        self.events_dropped = 0

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def breakdown_table(self, domain: Optional[str] = None) -> str:
        """Fixed-width per-op table: count, total/avg ns, P50/P99/P99.9."""
        headers = ["domain", "op", "count", "total_ns", "avg_ns",
                   "p50_ns", "p99_ns", "p999_ns", "share%"]
        grand_total = self.total_ns(domain) or 1
        rows: List[List[str]] = []
        for dom, op, stat in self.rows():
            if domain is not None and dom != domain:
                continue
            avg = stat.total_ns / stat.count if stat.count else 0.0
            rows.append([
                dom, op, str(stat.count), str(stat.total_ns),
                f"{avg:.1f}",
                f"{stat.percentile_ns(50):.0f}",
                f"{stat.percentile_ns(99):.0f}",
                f"{stat.percentile_ns(99.9):.0f}",
                f"{100.0 * stat.total_ns / grand_total:.1f}",
            ])
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(headers)]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
            "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append("  ".join(row[i].ljust(widths[i])
                                   for i in range(len(headers))))
        return "\n".join(lines)

    def chrome_events(self, pid: int) -> List[Dict[str, Any]]:
        """Chrome ``trace_event`` rows for the captured charges: one
        complete ("X") event each, one tid per core (-1 for uncored
        charges)."""
        events: List[Dict[str, Any]] = [
            {"ph": "M", "pid": pid, "name": "process_name",
             "args": {"name": "ops"}},
        ]
        for ts, core, dom, op, cost in self.events:
            events.append({
                "name": op, "cat": dom, "ph": "X",
                "ts": ts / 1000.0, "dur": cost / 1000.0,
                "pid": pid, "tid": core if core is not None else -1,
                "args": {"cost_ns": cost},
            })
        return events


class ChargeHandle:
    """Fast-path recorder bound to one ``(domain, op)`` stat.

    Created by :meth:`OpLedger.handle`.  :meth:`charge` skips the
    per-call key-tuple construction and dict lookup of
    :meth:`OpLedger.charge`; a generation check keeps the binding
    correct across :meth:`OpLedger.reset` (which experiments call at
    the start of every measurement window).
    """

    __slots__ = ("ledger", "domain", "op", "_stat", "_generation")

    def __init__(self, ledger: OpLedger, domain: str, op: str) -> None:
        self.ledger = ledger
        self.domain = domain
        self.op = op
        # Bound on first charge, not eagerly: an op that never fires must
        # not appear as a zero-count row in breakdowns.
        self._stat: Optional[LogHistogram] = None
        self._generation = ledger._generation

    def charge(self, cost_ns: int, core: Optional[int] = None) -> None:
        ledger = self.ledger
        stat = self._stat
        if stat is None or self._generation != ledger._generation:
            self._stat = stat = ledger._stat_for(self.domain, self.op)
            self._generation = ledger._generation
        stat.record(cost_ns)
        if ledger.capture_events:
            ledger._capture(core, self.domain, self.op, cost_ns)


class _NullChargeHandle:
    """Handle counterpart of :class:`NullLedger`: records nothing."""

    __slots__ = ()

    def charge(self, cost_ns: int, core: Optional[int] = None) -> None:
        pass


class NullLedger(OpLedger):
    """A ledger that records nothing; the zero-overhead default."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def charge(self, op: str, cost_ns: int, core: Optional[int] = None,
               domain: str = "misc") -> None:
        pass

    def count_op(self, op: str, core: Optional[int] = None,
                 domain: str = "misc") -> None:
        pass

    def handle(self, domain: str, op: str) -> "_NullChargeHandle":
        return _NULL_HANDLE


_NULL_HANDLE = _NullChargeHandle()

#: shared no-op instance every component defaults to
NULL_LEDGER = NullLedger()
