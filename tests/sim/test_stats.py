"""Tests for measurement primitives."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import (
    BusyAccounter,
    Counter,
    LatencyRecorder,
    summarize_ns,
)


# ----------------------------------------------------------------------
# summarize_ns / LatencyRecorder
# ----------------------------------------------------------------------
def test_summary_of_empty_is_nan():
    summary = summarize_ns([])
    assert summary["count"] == 0
    assert math.isnan(summary["avg_us"])
    assert math.isnan(summary["p999_us"])


def test_summary_single_sample():
    summary = summarize_ns([2000])
    assert summary["count"] == 1
    assert summary["avg_us"] == pytest.approx(2.0)
    assert summary["p50_us"] == pytest.approx(2.0)
    assert summary["p999_us"] == pytest.approx(2.0)


def test_summary_percentile_ordering():
    samples = list(range(1, 100001))
    summary = summarize_ns(samples)
    assert (summary["p50_us"] <= summary["p90_us"] <= summary["p99_us"]
            <= summary["p999_us"] <= summary["max_us"])


def test_recorder_mean_and_percentile():
    recorder = LatencyRecorder("r")
    for value in (1000, 2000, 3000):
        recorder.record(value)
    assert recorder.mean_us() == pytest.approx(2.0)
    assert recorder.percentile_us(50) == pytest.approx(2.0)
    assert recorder.count == 3


def test_recorder_rejects_negative():
    recorder = LatencyRecorder()
    with pytest.raises(ValueError):
        recorder.record(-1)


def test_recorder_clear():
    recorder = LatencyRecorder()
    recorder.record(5)
    recorder.clear()
    assert recorder.count == 0


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1,
                max_size=200))
def test_summary_mean_matches_numpy(samples):
    summary = summarize_ns(samples)
    assert summary["avg_us"] == pytest.approx(
        sum(samples) / len(samples) / 1000.0)
    assert summary["count"] == len(samples)


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1,
                max_size=200))
def test_summary_percentiles_within_range(samples):
    summary = summarize_ns(samples)
    lo, hi = min(samples) / 1000.0, max(samples) / 1000.0
    for key in ("p50_us", "p90_us", "p99_us", "p999_us"):
        assert lo - 1e-9 <= summary[key] <= hi + 1e-9


# ----------------------------------------------------------------------
# Counter
# ----------------------------------------------------------------------
def test_counter_accumulates():
    counter = Counter()
    counter.add()
    counter.add(4)
    assert counter.value == 5


def test_counter_rate():
    counter = Counter()
    counter.add(1000)
    # 1000 ops in 1 ms == 1M ops/s
    assert counter.rate_per_sec(1_000_000) == pytest.approx(1e6)


def test_counter_rate_zero_elapsed():
    counter = Counter()
    counter.add(10)
    assert counter.rate_per_sec(0) == 0.0


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter().add(-1)


# ----------------------------------------------------------------------
# BusyAccounter
# ----------------------------------------------------------------------
def test_busy_accounter_charges_and_fractions():
    acct = BusyAccounter()
    acct.charge("app", 750)
    acct.charge("kernel", 250)
    assert acct.total() == 1000
    assert acct.fraction("app") == pytest.approx(0.75)
    assert acct.fraction("missing") == 0.0


def test_busy_accounter_rejects_negative():
    with pytest.raises(ValueError):
        BusyAccounter().charge("x", -1)


def test_busy_accounter_cores_equivalent():
    acct = BusyAccounter()
    acct.charge("app", 2_000_000)
    assert acct.cores_equivalent("app", 1_000_000) == pytest.approx(2.0)


def test_busy_accounter_merge():
    a = BusyAccounter()
    a.charge("app", 10)
    b = BusyAccounter()
    b.charge("app", 5)
    b.charge("idle", 3)
    merged = a.merged(b)
    assert merged.buckets == {"app": 15, "idle": 3}
    # originals untouched
    assert a.buckets == {"app": 10}


def test_busy_accounter_empty_fraction():
    assert BusyAccounter().fraction("app") == 0.0
