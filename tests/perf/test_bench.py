"""Tests for the wall-clock benchmark harness (repro.perf.bench)."""

import json
import os

from repro.perf import bench


def test_engine_churn_kernel_is_deterministic():
    events_a, unit = bench.KERNELS["engine-churn"](seed=7)
    events_b, _ = bench.KERNELS["engine-churn"](seed=7)
    assert unit == "events"
    assert events_a == events_b > 0


def test_check_regressions_flags_only_beyond_tolerance():
    reference = {"kernels": {"a": {"normalized": 1.0},
                             "b": {"normalized": 1.0}}}
    current = {"kernels": {"a": {"normalized": 1.2},    # within 25 %
                           "b": {"normalized": 1.3},    # beyond
                           "c": {"normalized": 9.9}}}   # no reference
    failures = bench.check_regressions(current, reference, tolerance=0.25)
    assert len(failures) == 1
    assert failures[0].startswith("b:")


def test_smoke_kernels_exist_and_retired_kernels_are_ignored():
    assert set(bench.SMOKE_KERNELS) <= set(bench.KERNELS)
    # A recorded snapshot may hold kernels that no longer exist (this one
    # holds fig12-fluid); it must stay a usable --check reference.
    path = os.path.join(bench.RESULTS_DIR, "BENCH_2026-08-08e.json")
    with open(path) as handle:
        reference = json.load(handle)
    assert "fig12-fluid" in reference["kernels"]
    assert "fig12-fluid" not in bench.KERNELS
    current = {"kernels": {name: dict(reference["kernels"][name])
                           for name in bench.SMOKE_KERNELS}}
    assert bench.check_regressions(current, reference, tolerance=0.25) == []


def test_latest_record_prefers_dated_and_respects_exclude(tmp_path):
    baseline = tmp_path / bench.BASELINE_NAME
    dated_old = tmp_path / "BENCH_2026-01-01.json"
    dated_new = tmp_path / "BENCH_2026-02-01.json"
    for path in (baseline, dated_old, dated_new):
        path.write_text("{}")
    assert bench.latest_record(str(tmp_path)) == str(dated_new)
    # A bench run must not self-compare against the file it just wrote.
    assert bench.latest_record(str(tmp_path), exclude=str(dated_new)) \
        == str(dated_old)
    assert bench.latest_record(str(tmp_path), exclude=str(dated_old)) \
        == str(dated_new)


def test_latest_record_falls_back_to_baseline(tmp_path):
    assert bench.latest_record(str(tmp_path)) is None
    (tmp_path / bench.BASELINE_NAME).write_text("{}")
    assert bench.latest_record(str(tmp_path)) \
        == str(tmp_path / bench.BASELINE_NAME)


def test_main_smoke_writes_record(tmp_path, monkeypatch):
    """End-to-end: a --smoke run writes a well-formed BENCH json."""
    out = tmp_path / "BENCH_test.json"
    # Shrink the kernels so the test stays fast.
    monkeypatch.setitem(bench.KERNELS, "engine-churn",
                        lambda seed: (123, "events"))
    monkeypatch.setattr(bench, "SMOKE_KERNELS", ("engine-churn",))
    code = bench.main(["--smoke", "--output", str(out), "--seed", "1"])
    assert code == 0
    record = json.loads(out.read_text())
    assert record["seed"] == 1
    assert record["kernels"]["engine-churn"]["events"] == 123
    # The stubbed kernel returns instantly; normalized rounds to ~0.
    assert record["kernels"]["engine-churn"]["normalized"] >= 0
    assert "suite" not in record  # --smoke skips the suite kernel


def test_results_dir_points_into_repo():
    assert os.path.basename(bench.RESULTS_DIR) == "results"
    assert os.path.basename(os.path.dirname(bench.RESULTS_DIR)) \
        == "benchmarks"
