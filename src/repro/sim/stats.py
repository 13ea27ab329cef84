"""Latency measurement.

Request latencies and their percentiles (P50/P90/P99/P999):
:class:`LatencyRecorder` keeps every sample exact and unboxed in an
``array("q")`` (8 bytes each, not a boxed int per request), and
:func:`summarize_ns` summarizes them exactly with the standard library
alone, in bounded memory.  Operation counts are plain ints on each
``App`` (``offered``, ``completed``), and where CPU time went is each
``Core``'s ``buckets`` dict.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import repeat
from operator import add
from typing import Dict, List, Sequence, Tuple

#: samples converted to floats, summed and sorted at a time: the pairwise
#: sum is cut into subtrees of at most this many samples, each becomes
#: one sorted run
RUN_SAMPLES = 4096
#: the summary's percentiles, as (key, percent)
_PERCENTILES = (("p50_us", 50), ("p90_us", 90), ("p99_us", 99),
                ("p999_us", 99.9))


def _pairwise_sum(values: List[float], lo: int, n: int) -> float:
    """Float64 pairwise sum of ``values[lo:lo + n]`` (``n >= 1``), in the
    reference order: a plain loop below 8 values, eight strided
    accumulators up to 128, else halves split at a multiple of 8.
    ``reduce(add, ...)`` is a plain left fold; the builtin ``sum()`` of
    floats is compensated from Python 3.12 on and would differ."""
    if n < 8:
        return reduce(add, values[lo:lo + n])
    if n <= 128:
        end = lo + n - n % 8
        block = values[lo:end]
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), where rj
        # folds every eighth value from the j-th on
        total = (((reduce(add, block[0::8]) + reduce(add, block[1::8]))
                  + (reduce(add, block[2::8]) + reduce(add, block[3::8])))
                 + ((reduce(add, block[4::8]) + reduce(add, block[5::8]))
                    + (reduce(add, block[6::8])
                       + reduce(add, block[7::8]))))
        return reduce(add, values[end:lo + n], total)
    half = n // 2 - n // 2 % 8
    return (_pairwise_sum(values, lo, half)
            + _pairwise_sum(values, lo + half, n - half))


def _sum_and_sort(samples: Sequence[int], lo: int, n: int,
                  runs: List[array]) -> float:
    """Pairwise sum of ``samples[lo:lo + n]`` in microseconds; appends the
    same values, sorted, to ``runs`` one subtree of at most
    :data:`RUN_SAMPLES` at a time, so only one subtree is ever boxed."""
    if n > RUN_SAMPLES:
        half = n // 2 - n // 2 % 8
        return (_sum_and_sort(samples, lo, half, runs)
                + _sum_and_sort(samples, lo + half, n - half, runs))
    # ``/ 1000.0`` converts to float64 first, as the reference does;
    # ``/ 1000`` divides the integers exactly and rounds differently
    # above 2**53
    values = [sample / 1000.0 for sample in samples[lo:lo + n]]
    total = _pairwise_sum(values, 0, n)
    values.sort()
    runs.append(array("d", values))
    return total


def _select(runs: List[array], rank: int) -> Tuple[float, List[int]]:
    """The ``rank``-th smallest value (0-based) over the sorted ``runs``,
    and the position in each run just past every value up to it.

    Each round takes the middle of the widest remaining range as the
    pivot and counts the values below and up to it in every run, until
    the rank falls on the pivot."""
    lo = [0] * len(runs)
    hi = [len(run) for run in runs]
    while True:
        widest = max(range(len(runs)), key=lambda i: hi[i] - lo[i])
        pivot = runs[widest][(lo[widest] + hi[widest]) // 2]
        below = list(map(bisect_left, runs, repeat(pivot), lo, hi))
        if rank < sum(below):
            hi = below
            continue
        upto = list(map(bisect_right, runs, repeat(pivot), lo, hi))
        if rank < sum(upto):
            return pivot, upto
        lo = upto


def _percentile(runs: List[array], n: int, percent: float,
                peak: float) -> float:
    """The linearly interpolated percentile of the sorted ``runs``: the
    virtual rank ``(n - 1) * q`` between its two neighbours, the maximum
    at or past the last rank, and ``b - d * (1 - g)`` for ``g >= 0.5``
    as the reference lerps."""
    virtual = (n - 1) * (percent / 100)
    if virtual >= n - 1:
        return peak
    prev = int(virtual)
    gamma = virtual - prev
    below, upto = _select(runs, prev)
    if prev + 1 < sum(upto):
        above = below
    else:
        above = min(run[i] for run, i in zip(runs, upto) if i < len(run))
    diff = above - below
    if gamma >= 0.5:
        return above - diff * (1 - gamma)
    return below + diff * gamma


def summarize_ns(samples: Sequence[int]) -> Dict[str, float]:
    """Summary of latency samples in microseconds.

    Returns mean and the percentiles the paper's Table 1 reports; an empty
    sample sequence yields NaNs so that report code does not special-case
    it.  ``samples`` may be any sequence of integer nanoseconds (a list,
    an ``array("q")``) and is never mutated.

    One exact summary, bit-identical to the float64 reference formula
    (``tests/sim/test_stats.py``): on ``x = samples / 1000.0``, the
    pairwise-summed mean and the linearly interpolated percentiles.  It
    needs the standard library only, and bounded memory: one sorted
    float64 copy (8 bytes a sample) plus one boxed subtree of at most
    :data:`RUN_SAMPLES`.  A percentile is an order statistic, and
    ``/ 1000.0`` keeps order, so its ranks are selected among the sorted
    runs by bisection instead of one full sort.
    """
    n = len(samples)
    if n == 0:
        nan = float("nan")
        return {"count": 0, "avg_us": nan, "p50_us": nan, "p90_us": nan,
                "p99_us": nan, "p999_us": nan, "max_us": nan}
    runs: List[array] = []
    # the reference starts its sum at 0.0, a no-op on converted
    # integers (never -0.0)
    avg = _sum_and_sort(samples, 0, n, runs) / n
    peak = max(run[-1] for run in runs)
    summary = {"count": n, "avg_us": avg}
    for key, percent in _PERCENTILES:
        summary[key] = _percentile(runs, n, percent, peak)
    summary["max_us"] = peak
    return summary


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

    def clear(self) -> None:
        # array has no .clear() before Python 3.13
        del self.samples[:]
