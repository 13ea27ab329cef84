"""Tests for the latency recorder and its exact summary."""

import math
import random
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.sim.stats import RUN_SAMPLES, LatencyRecorder, summarize_ns


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
    summary = summarize_ns(recorder.samples)
    assert summary["avg_us"] == pytest.approx(2.0)
    assert summary["p50_us"] == pytest.approx(2.0)
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
def test_summary_mean_approximates_integer_mean(samples):
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


def _three_copy_summary(samples):
    """The summary as first written, on numpy: asarray, a divided copy,
    and np.percentile's own internal copy.  numpy is the test-only
    oracle; the stdlib summary must match it bit for bit."""
    arr = np.asarray(samples, dtype=np.float64) / 1_000.0
    p50, p90, p99, p999 = np.percentile(arr, [50, 90, 99, 99.9])
    return {"count": int(arr.size), "avg_us": float(arr.mean()),
            "p50_us": float(p50), "p90_us": float(p90),
            "p99_us": float(p99), "p999_us": float(p999),
            "max_us": float(arr.max())}


@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1,
                max_size=300),
       st.integers(min_value=1, max_value=3))
@example([7], 1)
@example([5, 5, 5], 1)
@example([2**40, 0], 2)
def test_summary_is_bit_identical_to_three_copy_formula(base, repeat):
    samples = base * repeat
    expected = _three_copy_summary(samples)
    as_list = list(samples)
    as_array = array("q", samples)
    assert summarize_ns(as_list) == expected
    assert summarize_ns(as_array) == expected
    # the summary sorts private copies only
    assert as_list == samples
    assert as_array == array("q", samples)


def _draws(kind, n, seed):
    """``n`` seeded samples of one value distribution."""
    rng = random.Random(seed)
    if kind == "lognormal":  # latency-like: a few µs, a long tail
        return [int(rng.lognormvariate(8.0, 1.2)) for _ in range(n)]
    if kind == "uniform-2^40":
        return [rng.randrange(2**40) for _ in range(n)]
    if kind == "top-of-int64":  # floats round here; 2**63 - 1 included
        return [2**63 - 1 - rng.randrange(2**20) for _ in range(n - 1)] \
            + [2**63 - 1]
    if kind == "duplicates":  # three distinct values
        return [1_000 * rng.randrange(3) for _ in range(n)]
    if kind == "one-value":
        return [(0, 1_999, 2**63 - 1)[seed % 3]] * n
    raise ValueError(kind)


#: sizes on both sides of the pairwise sum's 8- and 128-sample branches,
#: of its splits, and of the summary's run size
BRANCH_SIZES = (1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 137,
                255, 256, 257, 1_000, RUN_SAMPLES - 1, RUN_SAMPLES,
                RUN_SAMPLES + 1, 2 * RUN_SAMPLES + 8, 3 * RUN_SAMPLES + 5)


@pytest.mark.parametrize("kind", ["lognormal", "uniform-2^40",
                                  "top-of-int64", "duplicates",
                                  "one-value"])
def test_summary_is_bit_identical_across_branches(kind):
    for index, n in enumerate(BRANCH_SIZES):
        samples = _draws(kind, n, seed=index)
        assert summarize_ns(array("q", samples)) \
            == _three_copy_summary(samples), (kind, n)


def test_summary_is_bit_identical_at_a_million_samples():
    rng = random.Random(7)
    samples = array("q", (int(rng.lognormvariate(8.0, 1.2))
                          for _ in range(1_000_003)))
    samples[12_345] = 2**63 - 1
    assert summarize_ns(samples) == _three_copy_summary(samples)


def test_recorder_negative_leaves_samples_unchanged():
    recorder = LatencyRecorder()
    recorder.record(10)
    with pytest.raises(ValueError):
        recorder.record(-1)
    assert recorder.samples == array("q", [10])


def test_recorder_rejects_out_of_range_instead_of_wrapping():
    recorder = LatencyRecorder()
    recorder.record(2**63 - 1)
    with pytest.raises(OverflowError):
        recorder.record(2**63)
    assert recorder.samples == array("q", [2**63 - 1])


def test_recorder_clear_keeps_typed_array_and_records_again():
    recorder = LatencyRecorder()
    recorder.record(5)
    recorder.clear()
    assert recorder.samples.typecode == "q"
    assert len(recorder.samples) == 0
    recorder.record(7)
    assert recorder.samples == array("q", [7])


def _traced_bytes(fn):
    """(net growth, peak growth) of traced memory over ``fn()``."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current - before, peak - before


def test_recorder_stores_samples_unboxed():
    """A boxed int in a list costs about 36 bytes a sample; unboxed
    int64 storage costs 8 plus the array's growth slack."""
    n = 100_000
    recorder = LatencyRecorder()

    def fill():
        for i in range(n):
            recorder.record(1_000 + i)

    growth, _peak = _traced_bytes(fill)
    assert growth <= 10 * n


def test_summary_makes_one_full_size_copy():
    n = 100_000
    samples = array("q", range(1_000, 1_000 + n))
    summarize_ns(samples[:10])
    _growth, peak = _traced_bytes(lambda: summarize_ns(samples))
    # one float64 copy is 8 bytes a sample; a second would double it
    assert peak <= 1.25 * 8 * n
