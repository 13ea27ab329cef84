"""Fixed-bucket log histograms with an *exact* merge.

Extracted from the operation ledger so every layer that needs
sample-free percentiles shares one bucketing scheme: 8 sub-buckets per
power of two, bounding the relative error of any percentile estimate by
12.5 %.  The payoff of fixed buckets is the merge: two histograms add
bucket-by-bucket, and the result is *identical* to histogramming the
concatenated sample streams — no percentile-of-percentiles
approximation.  That is what lets a cluster report merge per-server
latency recorders (``repro.cluster``) without shipping raw samples
between processes.  The cluster's server worker is the only place a
run's latency histograms are built; the operation ledger keeps its
per-op cost statistics on this class too.

Everything here is plain ints/dicts, so histograms pickle cheaply
across ``parallel_map`` workers and merge deterministically (bucket
order never matters for the totals).
"""

from __future__ import annotations

from typing import Dict, Iterable

#: sub-buckets per power of two
SUBDIV = 8


def bucket_index(ns: int) -> int:
    """Fixed log-histogram bucket for a nanosecond value (0 -> bucket 0)."""
    if ns <= 0:
        return 0
    exp = ns.bit_length() - 1          # floor(log2(ns))
    base = 1 << exp
    sub = ((ns - base) << 3) >> exp    # 0..SUBDIV-1 within the octave
    return exp * SUBDIV + sub + 1


def bucket_upper_ns(index: int) -> float:
    """Inclusive upper bound of a bucket (the percentile estimate)."""
    if index <= 0:
        return 0.0
    index -= 1
    exp, sub = divmod(index, SUBDIV)
    base = 1 << exp
    return base + (sub + 1) * base / SUBDIV


class LogHistogram:
    """Sample-free latency aggregate: counts per log bucket + exact sums.

    ``record`` keeps the count, the exact nanosecond total, the exact
    max, and the bucket counts; percentiles come from the buckets
    (upper-bound estimates), while ``mean_us`` and ``max_us`` stay
    exact.  :meth:`merge` is the exact bucket-wise fold.
    """

    __slots__ = ("buckets", "count", "total_ns", "max_ns")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total_ns = 0
        self.max_ns = 0

    # ------------------------------------------------------------------
    def record(self, ns: int) -> None:
        if ns < 0:
            raise ValueError(f"negative value {ns}")
        bucket = bucket_index(ns)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total_ns += ns
        if ns > self.max_ns:
            self.max_ns = ns

    @classmethod
    def from_samples(cls, samples: Iterable[int]) -> "LogHistogram":
        hist = cls()
        for ns in samples:
            hist.record(ns)
        return hist

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` in (exact: equals histogramming the union)."""
        for bucket, n in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + n
        self.count += other.count
        self.total_ns += other.total_ns
        if other.max_ns > self.max_ns:
            self.max_ns = other.max_ns
        return self

    @classmethod
    def merged(cls, hists: Iterable["LogHistogram"]) -> "LogHistogram":
        out = cls()
        for hist in hists:
            out.merge(hist)
        return out

    # ------------------------------------------------------------------
    def percentile_ns(self, pct: float) -> float:
        """Estimated percentile (bucket upper bound; NaN when empty)."""
        if self.count == 0:
            return float("nan")
        target = pct / 100.0 * self.count
        cumulative = 0
        for bucket in sorted(self.buckets):
            cumulative += self.buckets[bucket]
            if cumulative >= target:
                return bucket_upper_ns(bucket)
        return bucket_upper_ns(max(self.buckets))

    def percentile_us(self, pct: float) -> float:
        return self.percentile_ns(pct) / 1_000.0

    def mean_us(self) -> float:
        if self.count == 0:
            return float("nan")
        return self.total_ns / self.count / 1_000.0

    def summary(self) -> Dict[str, float]:
        """Same keys as :func:`repro.sim.stats.summarize_ns` (percentiles
        are bucket estimates; count/avg/max are exact)."""
        if self.count == 0:
            nan = float("nan")
            return {"count": 0, "avg_us": nan, "p50_us": nan, "p90_us": nan,
                    "p99_us": nan, "p999_us": nan, "max_us": nan}
        return {
            "count": self.count,
            "avg_us": self.mean_us(),
            "p50_us": self.percentile_us(50),
            "p90_us": self.percentile_us(90),
            "p99_us": self.percentile_us(99),
            "p999_us": self.percentile_us(99.9),
            "max_us": self.max_ns / 1_000.0,
        }

    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict:
        return {"buckets": self.buckets, "count": self.count,
                "total_ns": self.total_ns, "max_ns": self.max_ns}

    def __setstate__(self, state: Dict) -> None:
        self.buckets = state["buckets"]
        self.count = state["count"]
        self.total_ns = state["total_ns"]
        self.max_ns = state["max_ns"]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogHistogram):
            return NotImplemented
        return (self.buckets == other.buckets and self.count == other.count
                and self.total_ns == other.total_ns
                and self.max_ns == other.max_ns)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<LogHistogram n={self.count} "
                f"p99={self.percentile_us(99):.1f}us>")
