"""Measurement primitives.

The paper reports three kinds of quantities and each has a recorder here:

* request latencies and their percentiles (P50/P90/P99/P999) —
  :class:`LatencyRecorder`, which keeps every sample exact and unboxed
  in an ``array("q")`` (8 bytes each, not a boxed int per request), and
  :func:`summarize_ns`, which summarizes them from one private float64
  copy;
* throughput / operation counts — :class:`Counter`;
* where CPU time went (application logic vs. runtime vs. kernel vs. idle,
  Figures 1b and 2) — :class:`BusyAccounter`.
"""

from __future__ import annotations

from array import array
from typing import Dict, Sequence

import numpy as np


def summarize_ns(samples: Sequence[int]) -> Dict[str, float]:
    """Summary of latency samples in microseconds.

    Returns mean and the percentiles the paper's Table 1 reports; an empty
    sample sequence yields NaNs so that report code does not special-case
    it.  ``samples`` may be any sequence of integer nanoseconds (a list,
    an ``array("q")``, an ndarray) and is never mutated: the summary is
    taken from one private float64 copy, which the percentile step may
    reorder in place.
    """
    if len(samples) == 0:
        nan = float("nan")
        return {"count": 0, "avg_us": nan, "p50_us": nan, "p90_us": nan,
                "p99_us": nan, "p999_us": nan, "max_us": nan}
    arr = np.array(samples, dtype=np.float64)
    arr /= 1_000.0
    # mean and max before the percentiles: the in-place partition below
    # reorders ``arr``, and the pairwise mean depends on element order.
    avg, peak = float(arr.mean()), float(arr.max())
    p50, p90, p99, p999 = np.percentile(arr, [50, 90, 99, 99.9],
                                        overwrite_input=True)
    return {
        "count": int(arr.size),
        "avg_us": avg,
        "p50_us": float(p50),
        "p90_us": float(p90),
        "p99_us": float(p99),
        "p999_us": float(p999),
        "max_us": peak,
    }


class LatencyRecorder:
    """Accumulates latency samples (integer nanoseconds), unboxed.

    A sample outside the signed 64-bit range raises ``OverflowError``
    rather than wrapping.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.samples = array("q")

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency {latency_ns}")
        self.samples.append(latency_ns)

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean_us(self) -> float:
        if not self.samples:
            return float("nan")
        return sum(self.samples) / len(self.samples) / 1_000.0

    def percentile_us(self, pct: float) -> float:
        if not self.samples:
            return float("nan")
        return float(np.percentile(np.asarray(self.samples), pct)) / 1_000.0

    def summary(self) -> Dict[str, float]:
        return summarize_ns(self.samples)

    def clear(self) -> None:
        # array has no .clear() before Python 3.13
        del self.samples[:]


class Counter:
    """A monotone operation counter with throughput helpers."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value: int = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"negative increment {amount}")
        self.value += amount

    def clear(self) -> None:
        self.value = 0


class BusyAccounter:
    """Attributes elapsed core time to named categories.

    Categories used throughout the reproduction: ``"app"`` (application
    logic), ``"runtime"`` (userspace scheduler/runtime work, including
    spinning and stealing), ``"kernel"`` (traps, IPIs, kernel context
    switches), and ``"idle"``.  Figures 1b and 2 are produced directly from
    these buckets.
    """

    def __init__(self) -> None:
        self.buckets: Dict[str, int] = {}

    def charge(self, category: str, elapsed_ns: int) -> None:
        if elapsed_ns < 0:
            raise ValueError(f"negative charge {elapsed_ns}")
        self.buckets[category] = self.buckets.get(category, 0) + elapsed_ns

    def total(self) -> int:
        return sum(self.buckets.values())

    def cores_equivalent(self, category: str, elapsed_ns: int) -> float:
        """Busy time in ``category`` expressed as a number of cores."""
        if elapsed_ns <= 0:
            return 0.0
        return self.buckets.get(category, 0) / elapsed_ns

    def clear(self) -> None:
        self.buckets.clear()
