"""The log-histogram contract: exact merge, stable buckets, summaries."""

import pickle
import random

import pytest

from repro.obs.hist import LogHistogram, SUBDIV, bucket_index, bucket_upper_ns


def test_bucket_index_octave_layout():
    assert bucket_index(0) == 0
    assert bucket_index(1) == 1
    # Every value falls in a bucket whose upper bound is >= the value
    # and within 1/SUBDIV relative error of it.
    for ns in [1, 2, 3, 7, 8, 9, 100, 1023, 1024, 1025, 10**6, 10**9]:
        upper = bucket_upper_ns(bucket_index(ns))
        assert upper >= ns
        assert upper <= ns * (1.0 + 1.0 / SUBDIV) + 1


def test_bucket_index_monotone():
    indices = [bucket_index(ns) for ns in range(0, 5000)]
    assert indices == sorted(indices)


def test_merge_equals_histogram_of_concatenation():
    rng = random.Random(11)
    streams = [[rng.randrange(0, 1 << 22) for _ in range(500)]
               for _ in range(4)]
    merged = LogHistogram.merged(
        LogHistogram.from_samples(stream) for stream in streams)
    direct = LogHistogram.from_samples(
        [ns for stream in streams for ns in stream])
    assert merged == direct  # buckets, count, total, max: all exact
    for pct in (50, 90, 99, 99.9):
        assert merged.percentile_ns(pct) == direct.percentile_ns(pct)


def test_merge_is_order_independent():
    rng = random.Random(13)
    hists = [LogHistogram.from_samples(
        rng.randrange(1, 10**7) for _ in range(200)) for _ in range(3)]
    forward = LogHistogram.merged(hists)
    backward = LogHistogram.merged(reversed(hists))
    assert forward == backward


def test_summary_keys_and_exact_fields():
    hist = LogHistogram.from_samples([1000, 2000, 3000, 4000])
    summary = hist.summary()
    assert set(summary) == {"count", "avg_us", "p50_us", "p90_us",
                            "p99_us", "p999_us", "max_us"}
    assert summary["count"] == 4
    assert summary["avg_us"] == pytest.approx(2.5)   # exact, not bucketed
    assert summary["max_us"] == pytest.approx(4.0)   # exact, not bucketed
    assert summary["p99_us"] >= 4.0                   # bucket upper bound


def test_empty_histogram_summary_is_nan():
    summary = LogHistogram().summary()
    assert summary["count"] == 0
    assert summary["avg_us"] != summary["avg_us"]  # NaN


def test_record_rejects_negative():
    with pytest.raises(ValueError):
        LogHistogram().record(-1)


def test_pickle_roundtrip_preserves_equality():
    hist = LogHistogram.from_samples([5, 50, 500, 5000])
    clone = pickle.loads(pickle.dumps(hist))
    assert clone == hist
    clone.record(7)
    assert clone != hist
