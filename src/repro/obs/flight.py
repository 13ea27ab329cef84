"""Per-request flight recording: lifecycle stage spans and their audit.

The :class:`~repro.obs.ledger.OpLedger` answers *which operations* cost
nanoseconds and the :class:`~repro.sim.trace.Tracer` answers *which core*
was busy; neither follows one request end-to-end.  The
:class:`FlightRecorder` does: every chokepoint a request passes through
stamps a *mark* — ``(label, timestamp_ns, core)`` — onto the request's
``flight`` list, and when the request reaches a terminal outcome the
recorder folds the mark sequence into per-stage durations.

Marks and the stage each one opens (:data:`STAGE_AFTER`)::

    client_send -> net_in        client machine put it on the wire
    ingress     -> nic_ring      NIC RSS-steered it onto an RX ring
    admit       -> sched_queue   admission control let it through
    submit      -> sched_queue   the scheduling system's intake
    run_start   -> service       a core began (or resumed) serving it
    preempt     -> preempt_wait  preempted mid-service, requeued
    complete    -> net_out       end_service fired (server done)

Terminal outcomes (:data:`TERMINAL`): ``done`` (response reached the
client, or direct-submit completion), ``dup`` (response arrived after a
retransmission already completed the logical request), ``shed``
(admission rejection observed), ``drop`` (packet lost on a link or NIC
ring).  Stage durations *telescope*: every mark opens exactly one stage
that the next mark closes, so the per-request stage sum equals the
measured latency **exactly** — the same integer the client-side
:class:`~repro.sim.stats.LatencyRecorder` records (both keep their
per-request integers unboxed in ``array("q")``).  That identity is not
a modeling choice to validate but an invariant :meth:`audit` enforces,
together with mark monotonicity, transition legality
(:data:`LEGAL_NEXT`) and per-core non-overlap of service segments.
:meth:`FlightRecorder.finalize` walks a flight's marks once: the same
loop checks monotonicity, legality, that every mark opens a stage and
the stage sum, and folds a ``done`` flight's stage durations and
service segments; only the cross-flight overlap check waits for
:meth:`~FlightRecorder.audit`.

Zero-overhead disablement mirrors ``NULL_LEDGER``: components default to
the shared :data:`NULL_FLIGHT`, whose methods are empty and whose
``enabled`` flag lets hot paths skip even argument construction, so runs
without ``--latency-breakdown``/``--trace-requests`` stay byte-identical.
What recording costs when on is measured by ``benchmarks/e2e``'s
``overload-chaos`` workload (see ``benchmarks/e2e/README.md``).
"""

from __future__ import annotations

import heapq
from array import array
from collections import defaultdict
from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, DefaultDict, Dict, List,
                    Optional, Sequence, Tuple)

from repro.sim.engine import RunComponent
from repro.sim.stats import summarize_ns

if TYPE_CHECKING:  # pragma: no cover - circular at runtime via hardware
    from repro.workloads.base import Request

#: mark label -> the lifecycle stage that runs *from this mark to the
#: next one*.  Every non-terminal label appears here, which is what makes
#: per-request stage durations telescope to the measured latency.
STAGE_AFTER: Dict[str, str] = {
    "client_send": "net_in",
    "ingress": "nic_ring",
    "admit": "sched_queue",
    "submit": "sched_queue",
    "run_start": "service",
    "preempt": "preempt_wait",
    "complete": "net_out",
    "shed": "net_out",
}

#: terminal outcome labels appended by :meth:`FlightRecorder.finalize`
TERMINAL = ("done", "dup", "shed", "drop")

#: legal successor labels, the transition audit's ground truth
LEGAL_NEXT: Dict[str, Tuple[str, ...]] = {
    "client_send": ("ingress", "drop"),
    "ingress": ("admit", "submit", "shed", "drop"),
    "admit": ("submit",),
    "submit": ("run_start",),
    "run_start": ("preempt", "complete"),
    "preempt": ("run_start",),
    "complete": ("done", "dup", "drop"),
    "shed": ("shed", "drop"),
}

#: every legal ``(prev, next)`` pair; :data:`LEGAL_NEXT` and
#: :data:`STAGE_AFTER` share their keys, so a label that opens a stage
#: is exactly one whose successors are audited
_LEGAL_PAIRS = frozenset((prev, nxt) for prev, successors
                         in LEGAL_NEXT.items() for nxt in successors)

#: stage print order for breakdown tables
STAGE_ORDER = ("net_in", "nic_ring", "sched_queue", "service",
               "preempt_wait", "net_out")

_MAX_VIOLATIONS = 50

#: factory of the unboxed per-request duration arrays
_int64_array = partial(array, "q")


class FlightRecorder(RunComponent):
    """Collects per-request lifecycle marks and derives stage spans.

    One instance per simulation (attached to the
    :class:`~repro.hardware.machine.Machine` like the ledger).  Marks
    live on ``request.flight`` — a plain list, appended in simulation
    order — and are folded into aggregates at :meth:`finalize` time so
    the recorder never holds references to live requests.
    """

    enabled = True

    def __init__(self, sim, reservoir_k: int = 4,
                 max_segments: int = 250_000) -> None:
        self.sim = sim
        self.reservoir_k = max(0, reservoir_k)
        self.max_segments = max_segments
        #: (app, stage) -> stage durations (ns) of "done" flights
        self._stage_ns: DefaultDict[Tuple[str, str], array] = \
            defaultdict(_int64_array)
        #: app -> end-to-end totals (ns) of "done" flights
        self._totals: DefaultDict[str, array] = defaultdict(_int64_array)
        #: (app, outcome) -> finalized-flight count
        self._outcomes: Dict[Tuple[str, str], int] = {}
        #: (core, start_ns, end_ns) service segments for the overlap audit
        self._segments: List[Tuple[int, int, int]] = []
        self.segments_dropped = 0
        #: min-heap of (total_ns, seq, app, outcome, marks) — K slowest
        self._slowest: List[Tuple[int, int, str, str, tuple]] = []
        self._seq = 0
        self._violations: List[str] = []
        self._violations_dropped = 0
        #: what :meth:`contribute` reports against and prints (see
        #: :meth:`bind_report`)
        self._system_name = ""
        self._samples: Callable[[], Dict[str, Sequence[int]]] = dict
        self._print_breakdown = False
        self._print_slowest = 0

    # ------------------------------------------------------------------
    # Marking (hot path — callers guard with ``if flight.enabled:``)
    # ------------------------------------------------------------------
    def mark(self, request: Request, label: str,
             core: Optional[int] = None) -> None:
        """Stamp ``label`` at the current simulation time.

        The first mark of a request's life creates its flight record;
        finalized requests (``flight`` reset to None) are never
        resurrected because nothing touches a request after its terminal
        outcome — retransmissions are fresh ``Request`` objects.
        """
        rec = request.flight
        if rec is None:
            rec = request.flight = []
        rec.append((label, self.sim.now, core))

    def begin(self, request: Request) -> None:
        """Client put the request on the wire (``client_send``).

        Every attempt is a fresh ``Request``, so this is its first mark.
        """
        request.flight = [("client_send", self.sim.now, None)]

    def on_submit(self, request: Request) -> None:
        """The scheduling system accepted the request (``submit``)."""
        rec = request.flight
        if rec is None:
            # A direct submit: no client marked it first.
            request.flight = [("submit", self.sim.now, None)]
        else:
            rec.append(("submit", self.sim.now, None))

    def on_complete(self, request: Request) -> None:
        """Server-side completion; finalizes direct-submit requests.

        Net-delivered requests are completed by the fabric instead:
        ``NetFabric._server_done`` stamps "complete" (same sim event)
        before shipping the response, and finalization happens at
        client delivery or at a drop — by the time the system calls us
        the flight may already be finalized (``request.flight is
        None``) if the response leg lost the packet synchronously.
        """
        if request.flight is None or request.net_token is not None:
            return
        self.mark(request, "complete")
        self.finalize(request, "done")

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self, request: Request, outcome: str) -> None:
        """Close the flight with ``outcome`` and fold it into aggregates.

        One pass over the marks checks the per-flight invariants and,
        for a ``done`` flight, folds the stage durations and service
        segments; violations are reported in mark order.
        """
        marks = request.flight
        if marks is None:
            return
        request.flight = None
        now = self.sim.now
        marks.append((outcome, now, None))
        app = request.app.name
        key = (app, outcome)
        self._outcomes[key] = self._outcomes.get(key, 0) + 1
        done = outcome == "done"
        stage_ns = self._stage_ns
        stage_sum = 0
        prev_label, prev_ts, prev_core = marks[0]
        total = now - prev_ts
        for label, ts, core in marks[1:]:
            if ts < prev_ts:
                self._violate(f"{app}: non-monotonic mark {label}@{ts} "
                              f"after {prev_label}@{prev_ts}")
            stage = STAGE_AFTER.get(prev_label)
            if stage is None:
                self._violate(f"{app}: mark {prev_label!r} opens no stage")
            else:
                if (prev_label, label) not in _LEGAL_PAIRS:
                    self._violate(
                        f"{app}: illegal transition {prev_label} -> {label}")
                stage_sum += ts - prev_ts
                if done:
                    if ts > prev_ts:
                        stage_ns[(app, stage)].append(ts - prev_ts)
                    if prev_label == "run_start" and prev_core is not None:
                        if len(self._segments) < self.max_segments:
                            self._segments.append((prev_core, prev_ts, ts))
                        else:
                            self.segments_dropped += 1
            prev_label, prev_ts, prev_core = label, ts, core
        if stage_sum != total:
            self._violate(f"{app}: stage sum {stage_sum} != total {total}")
        if not done:
            return
        self._totals[app].append(total)
        if self.reservoir_k:
            slowest = self._slowest
            # ``seq`` strictly increases, so on a tie in ``total`` the
            # new flight is the larger entry: ``>=`` is ``entry > top``.
            if len(slowest) < self.reservoir_k:
                heapq.heappush(slowest, (total, self._seq, app, outcome,
                                         tuple(marks)))
            elif total >= slowest[0][0]:
                heapq.heapreplace(slowest, (total, self._seq, app, outcome,
                                            tuple(marks)))
            self._seq += 1

    def _violate(self, message: str) -> None:
        if len(self._violations) < _MAX_VIOLATIONS:
            self._violations.append(message)
        else:
            self._violations_dropped += 1

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    def audit(self) -> List[str]:
        """All invariant violations observed (empty list == clean).

        Per-flight checks (monotonicity, transition legality, stage-sum
        == latency) accumulate during finalization; the per-core
        non-overlap check over all recorded service segments runs here.
        """
        violations = list(self._violations)
        if self._violations_dropped:
            violations.append(
                f"... and {self._violations_dropped} more violations")
        by_core: Dict[int, List[Tuple[int, int]]] = {}
        for core, start, end in self._segments:
            by_core.setdefault(core, []).append((start, end))
        for core in sorted(by_core):
            segs = sorted(by_core[core])
            for (s0, e0), (s1, e1) in zip(segs, segs[1:]):
                if s1 < e0:
                    violations.append(
                        f"core {core}: overlapping service segments "
                        f"[{s0},{e0}) and [{s1},{e1})")
                    break
        if self.segments_dropped:
            violations.append(
                f"segment cap hit: {self.segments_dropped} segments "
                f"not overlap-checked")
        return violations

    def conservation(self, samples: Dict[str, Sequence[int]]) -> List[str]:
        """Cross-check flight aggregates against independent recorders.

        ``samples`` maps each app to the latencies of the authoritative
        recorder.  Every ``done`` flight must correspond one-to-one with
        one of them, with *exactly* equal integer sums — the
        span-conservation half of the trace-invariant audit (the other
        half, NetFabric's offered/completed/in-flight identity, is
        checked by ``report.net_conservation``).
        """
        violations: List[str] = []
        for name, recorded in sorted(samples.items()):
            totals = self.done_totals(name)
            if len(totals) != len(recorded):
                violations.append(
                    f"{name}: {len(totals)} done flights but "
                    f"{len(recorded)} recorded latencies")
            elif sum(totals) != sum(recorded):
                violations.append(
                    f"{name}: flight latency sum {sum(totals)} != "
                    f"recorded sum {sum(recorded)}")
        return violations

    # ------------------------------------------------------------------
    # Queries / summaries
    # ------------------------------------------------------------------
    def done_totals(self, app: str) -> array:
        """End-to-end latencies (ns) of ``done`` flights, arrival order."""
        return self._totals.get(app, array("q"))

    def outcome_counts(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for (app, outcome), count in sorted(self._outcomes.items()):
            out.setdefault(app, {})[outcome] = count
        return out

    def stage_summaries(self) -> Dict[str, Dict[str, Any]]:
        """Per-app stage decomposition of completed-request latency.

        For each app: ``stages`` maps stage name to a
        :func:`~repro.sim.stats.summarize_ns` summary, ``total`` is the
        summary of end-to-end latencies, and ``stage_sum_ns`` /
        ``total_sum_ns`` are the exact integer aggregates whose equality
        is the telescoping invariant.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for app in sorted(self._totals):
            totals = self._totals[app]
            stages = {}
            stage_sum = 0
            for stage in STAGE_ORDER:
                samples = self._stage_ns.get((app, stage))
                if samples:
                    stages[stage] = summarize_ns(samples)
                    stages[stage]["sum_ns"] = sum(samples)
                    stage_sum += stages[stage]["sum_ns"]
            out[app] = {
                "stages": stages,
                "total": summarize_ns(totals),
                "stage_sum_ns": stage_sum,
                "total_sum_ns": sum(totals),
            }
        return out

    def slowest_traces(self) -> List[Dict[str, Any]]:
        """The K slowest completed flights, slowest first."""
        entries = sorted(self._slowest, reverse=True)
        return [
            {"app": app, "total_ns": total, "outcome": outcome,
             "marks": [list(m) for m in marks]}
            for total, _seq, app, outcome, marks in entries
        ]

    # ------------------------------------------------------------------
    # Lifecycle / export
    # ------------------------------------------------------------------
    def begin_measurement(self) -> None:
        """Drop warmup-phase aggregates (in-flight marks are preserved)."""
        self._stage_ns.clear()
        self._totals.clear()
        self._outcomes.clear()
        self._segments.clear()
        self.segments_dropped = 0
        self._slowest.clear()
        self._violations.clear()
        self._violations_dropped = 0

    def bind_report(self, system_name: str,
                    samples: Callable[[], Dict[str, Sequence[int]]],
                    print_breakdown: bool = False,
                    print_slowest: int = 0) -> None:
        """Set what :meth:`contribute` audits against and prints.

        ``samples`` returns, after the run, each app's latencies from
        the authoritative recorder (client-side when a fabric ran).
        ``print_breakdown`` prints the per-stage table and any audit
        failure; ``print_slowest`` prints that many slowest flights.
        """
        self._system_name = system_name
        self._samples = samples
        self._print_breakdown = print_breakdown
        self._print_slowest = print_slowest

    def contribute(self, report) -> None:
        """Stage summaries, outcome counts and the audit, plus the
        printouts :meth:`bind_report` asked for."""
        name = self._system_name
        samples = self._samples()
        report.latency_stages = self.stage_summaries()
        report.flight_counts = self.outcome_counts()
        report.flight_audit = self.audit() + self.conservation(samples)
        if self._print_breakdown:
            print(format_breakdown(name, report.latency_stages,
                                   client_samples=samples))
            if report.flight_audit:
                print(f"[{name}] TRACE AUDIT FAILED:")
                for violation in report.flight_audit:
                    print(f"  {violation}")
        if self._print_slowest > 0:
            shown = self.slowest_traces()[:self._print_slowest]
            print(f"[{name}] {len(shown)} slowest requests:")
            for trace in shown:
                path = " -> ".join(
                    f"{label}@{ts}" + (f"/c{core}" if core is not None
                                       else "")
                    for label, ts, core in trace["marks"])
                print(f"  {trace['app']} "
                      f"{trace['total_ns'] / 1000.0:.1f}us: {path}")

    def chrome_events(self, pid: int) -> List[Dict[str, Any]]:
        """Chrome ``trace_event`` rows for the slowest-flight reservoir.

        Each reservoir flight becomes one thread under ``pid``; its
        stage spans are complete ("X") events so a Perfetto timeline
        shows the per-request decomposition next to the core spans.
        """
        events: List[Dict[str, Any]] = [
            {"ph": "M", "pid": pid, "name": "process_name",
             "args": {"name": "requests"}},
        ]
        for tid, flight in enumerate(self.slowest_traces()):
            events.append({
                "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                "args": {"name": f"{flight['app']} "
                                 f"{flight['total_ns'] / 1000.0:.1f}us"},
            })
            marks = flight["marks"]
            for (label, ts, core), (_nl, nts, _nc) in zip(marks, marks[1:]):
                stage = STAGE_AFTER.get(label)
                if stage is None:
                    continue
                event = {"name": stage, "cat": "flight", "ph": "X",
                         "ts": ts / 1000.0, "dur": (nts - ts) / 1000.0,
                         "pid": pid, "tid": tid}
                if core is not None:
                    event["args"] = {"core": core}
                events.append(event)
        return events


class NullFlightRecorder(FlightRecorder):
    """A recorder that records nothing; the zero-overhead default."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(sim=None)

    def mark(self, request: Request, label: str,
             core: Optional[int] = None) -> None:
        pass

    def begin(self, request: Request) -> None:
        pass

    def on_submit(self, request: Request) -> None:
        pass

    def on_complete(self, request: Request) -> None:
        pass

    def finalize(self, request: Request, outcome: str) -> None:
        pass


#: shared no-op instance every component defaults to
NULL_FLIGHT = NullFlightRecorder()


def format_breakdown(system: str,
                     summaries: Dict[str, Dict[str, Any]],
                     client_samples: Optional[Dict[str, Sequence[int]]]
                     = None) -> str:
    """Human-readable per-app stage table plus the reconciliation line.

    ``client_samples`` (app -> latency samples of the authoritative
    recorder, client-side when a fabric ran) makes the reconciliation
    explicit: the printed delta is the integer difference between the
    flight-derived stage sums and the independently measured latencies,
    and it must be zero.
    """
    from repro.experiments.common import format_table

    lines: List[str] = []
    rows: List[List[object]] = []
    for app, summary in summaries.items():
        total_sum = summary["total_sum_ns"] or 1
        for stage in STAGE_ORDER:
            stat = summary["stages"].get(stage)
            if not stat:
                continue
            rows.append([app, stage, stat["count"],
                         round(stat["avg_us"], 3),
                         round(stat["p50_us"], 3),
                         round(stat["p99_us"], 3),
                         round(100.0 * stat["sum_ns"] / total_sum, 1)])
        tot = summary["total"]
        rows.append([app, "TOTAL", tot["count"],
                     round(tot["avg_us"], 3), round(tot["p50_us"], 3),
                     round(tot["p99_us"], 3), 100.0])
    lines.append(f"[{system}] latency breakdown by stage:")
    lines.append(format_table(
        ["app", "stage", "count", "avg_us", "p50_us", "p99_us", "share%"],
        rows))
    for app, summary in summaries.items():
        delta = summary["stage_sum_ns"] - summary["total_sum_ns"]
        count = summary["total"]["count"]
        line = (f"[{system}] {app}: stage sums reconcile over {count} "
                f"requests (delta {delta} ns")
        if client_samples is not None and app in client_samples:
            measured = sum(client_samples[app])
            line += (f", vs measured latency "
                     f"{summary['total_sum_ns'] - measured} ns")
        lines.append(line + ")")
    return "\n".join(lines)
