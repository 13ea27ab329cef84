"""Execution tracing and ASCII core timelines (Figure 7 style).

A :class:`Tracer` records what every core was doing as a sequence of
(start, end, category) spans; :func:`render_timeline` draws the familiar
per-core occupancy strip the paper uses in Figure 7 to contrast
Caladan's conservative two-level schedule with VESSEL's packed one.

Attach a tracer to a machine before running::

    tracer = Tracer(sim)
    machine.attach_tracer(tracer)
    ...
    print(render_timeline(tracer, t0, t1, cores=[1, 2, 3]))

Categories map to single glyphs: the first letter of the app name for
``app:<name>`` spans, ``r`` for runtime, ``K`` for kernel, ``.`` for
idle.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.engine import Simulator

Span = Tuple[int, int, str]  # (start_ns, end_ns, category)


class Tracer:
    """Collects per-core activity spans.

    Spans on one core are produced sequentially (each starts where the
    previous one ended), so both the start and end columns are
    non-decreasing — :meth:`spans_between` exploits that to locate the
    overlap window with bisection instead of a full scan.
    """

    def __init__(self, sim: Simulator, max_spans_per_core: int = 500_000):
        self.sim = sim
        self.max_spans_per_core = max_spans_per_core
        self.spans: Dict[int, List[Span]] = defaultdict(list)
        self._starts: Dict[int, List[int]] = defaultdict(list)
        self._ends: Dict[int, List[int]] = defaultdict(list)
        self.dropped = 0

    def record(self, core_id: int, start_ns: int, end_ns: int,
               category: str) -> None:
        """Record one span; zero-length spans are skipped."""
        if end_ns <= start_ns:
            return
        spans = self.spans[core_id]
        if len(spans) >= self.max_spans_per_core:
            self.dropped += 1
            return
        spans.append((start_ns, end_ns, category))
        self._starts[core_id].append(start_ns)
        self._ends[core_id].append(end_ns)

    def spans_between(self, core_id: int, t0: int, t1: int) -> List[Span]:
        """Spans overlapping [t0, t1), clipped to it."""
        spans = self.spans.get(core_id)
        if not spans:
            return []
        # First span whose end exceeds t0, last span whose start precedes
        # t1: an O(log n) window instead of scanning every span.
        lo = bisect.bisect_right(self._ends[core_id], t0)
        hi = bisect.bisect_left(self._starts[core_id], t1)
        out = []
        for start, end, category in spans[lo:hi]:
            if end <= t0 or start >= t1:
                continue
            out.append((max(start, t0), min(end, t1), category))
        return out

    def busy_fraction(self, core_id: int, t0: int, t1: int,
                      prefix: str = "app:") -> float:
        """Fraction of [t0, t1) spent in categories matching ``prefix``."""
        if t1 <= t0:
            return 0.0
        busy = sum(end - start
                   for start, end, cat in self.spans_between(core_id, t0, t1)
                   if cat.startswith(prefix))
        return busy / (t1 - t0)

    def chrome_events(self, pid: int) -> List[Dict[str, Any]]:
        """Chrome ``trace_event`` rows: one complete ("X") event per
        span, one tid per core, in microseconds as the format requires."""
        events: List[Dict[str, Any]] = [
            {"ph": "M", "pid": pid, "name": "process_name",
             "args": {"name": "cores"}},
        ]
        for core_id in sorted(self.spans):
            for start, end, category in self.spans[core_id]:
                events.append({
                    "name": category, "cat": "span", "ph": "X",
                    "ts": start / 1000.0, "dur": (end - start) / 1000.0,
                    "pid": pid, "tid": core_id,
                })
        return events


def category_glyph(category: str) -> str:
    """The single character a category renders as."""
    if category.startswith("app:"):
        name = category[4:]
        return name[0].upper() if name else "A"
    return {"runtime": "r", "kernel": "K", "idle": ".",
            "switch": "r"}.get(category, "?")


def render_timeline(tracer: Tracer, t0: int, t1: int,
                    cores: Optional[Sequence[int]] = None,
                    width: int = 100,
                    legend: bool = True) -> str:
    """ASCII occupancy strip: one row per core, one glyph per bucket.

    Each bucket shows the category that occupied the majority of it.
    """
    if t1 <= t0:
        raise ValueError(f"empty window [{t0}, {t1})")
    if cores is None:
        cores = sorted(tracer.spans.keys())
    bucket_ns = max(1, (t1 - t0) // width)
    lines = []
    seen_categories = {}
    for core_id in cores:
        occupancy = [defaultdict(int) for _ in range(width)]
        for start, end, category in tracer.spans_between(core_id, t0, t1):
            first = min(width - 1, (start - t0) // bucket_ns)
            last = min(width - 1, (end - 1 - t0) // bucket_ns)
            for bucket in range(first, last + 1):
                b_start = t0 + bucket * bucket_ns
                b_end = b_start + bucket_ns
                overlap = min(end, b_end) - max(start, b_start)
                if overlap > 0:
                    occupancy[bucket][category] += overlap
        row = []
        for bucket in occupancy:
            if not bucket:
                row.append(" ")
                continue
            category = max(bucket, key=bucket.get)
            glyph = category_glyph(category)
            seen_categories[glyph] = category
            row.append(glyph)
        lines.append(f"core {core_id:>3} |{''.join(row)}|")
    if legend and seen_categories:
        entries = ", ".join(f"{glyph}={cat}" for glyph, cat
                            in sorted(seen_categories.items()))
        lines.append(f"[{entries}; 1 col = {bucket_ns} ns]")
    return "\n".join(lines)
