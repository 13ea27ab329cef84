"""Tests for the experiment harness infrastructure."""

import contextlib
import io
import json
import os

import pytest

from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    l_capacity_mops,
    normalized_total,
    report_fields,
    report_fingerprint,
    run_colocation,
    run_colocation_batch,
    system_factory,
)
from repro.sched.base import SystemReport
from repro.sim.units import MS, US


def test_system_factory_known_names():
    for name in ("ideal", "vessel", "caladan", "caladan-dr-l",
                 "caladan-dr-h", "arachne", "linux-cfs"):
        assert callable(system_factory(name))


def test_system_factory_unknown_name():
    with pytest.raises(ValueError):
        system_factory("windows-scheduler")


def test_l_capacity():
    cfg = ExperimentConfig(num_workers=8)
    assert l_capacity_mops(cfg, 1000) == pytest.approx(8.0)
    assert l_capacity_mops(cfg, 2000) == pytest.approx(4.0)


def test_normalized_total_ideal_case():
    cfg = ExperimentConfig(num_workers=4)
    report = SystemReport(system="x", elapsed_ns=1_000_000,
                          num_worker_cores=4)
    report.completed["mc"] = 2000   # 2 Mops of 4 Mops capacity -> 0.5
    report.useful_ns["lp"] = 2_000_000  # half the 4 core-seconds
    total = normalized_total(report, cfg, {"mc": 1000})
    assert total == pytest.approx(1.0)


def test_normalized_total_with_alone_baseline():
    cfg = ExperimentConfig(num_workers=4)
    report = SystemReport(system="x", elapsed_ns=1_000_000,
                          num_worker_cores=4)
    report.useful_ns["mb"] = 500_000
    total = normalized_total(report, cfg, {},
                             b_alone_useful={"mb": 1_000_000})
    assert total == pytest.approx(0.5)


def test_format_table_aligns():
    text = format_table(["name", "value"], [["a", 1.5], ["long-name", 2]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert "1.500" in lines[2]


def test_run_colocation_smoke():
    cfg = ExperimentConfig(num_workers=2, sim_ms=4, warmup_ms=1)
    report = run_colocation("ideal", cfg,
                            l_specs=[("memcached", "memcached", 0.3)])
    assert report.completed["memcached"] > 0
    assert report.elapsed_ns == (cfg.sim_ms - cfg.warmup_ms) * MS


def test_run_colocation_silo():
    cfg = ExperimentConfig(num_workers=2, sim_ms=6, warmup_ms=1)
    report = run_colocation("ideal", cfg, l_specs=[("silo", "silo", 0.02)])
    assert report.completed["silo"] > 0


def test_run_colocation_unknown_specs():
    cfg = ExperimentConfig(num_workers=2, sim_ms=2, warmup_ms=1)
    with pytest.raises(ValueError):
        run_colocation("ideal", cfg, l_specs=[("mysql", "m", 1.0)])
    with pytest.raises(ValueError):
        run_colocation("ideal", cfg, l_specs=[], b_specs=("bitcoin",))


@pytest.mark.parametrize("system", ["ideal", "caladan-dr-l", "arachne",
                                    "linux-cfs"])
def test_bw_cap_needs_a_system_with_a_cap_mechanism(system):
    """Regression: a cap on a system without the named mechanism used
    to be silently ignored."""
    cfg = ExperimentConfig(num_workers=2, sim_ms=2, warmup_ms=1)
    with pytest.raises(ValueError, match="bandwidth-cap"):
        run_colocation(system, cfg, l_specs=[("memcached", "mc", 0.3)],
                       b_specs=("membench",), bw_cap=("membench", 20.0))


def _report(**fields):
    return SystemReport(system="vessel", elapsed_ns=1_000,
                        num_worker_cores=2, **fields)


@pytest.mark.parametrize("field,first,second", [
    ("useful_ns", {"lp": 500}, {"lp": 501}),
    ("buckets", {"app:mc": 700, "idle": 300},
     {"app:mc": 699, "idle": 301}),
])
def test_report_fingerprint_reads_efficiency_fields(field, first, second):
    assert report_fingerprint([_report(**{field: first})]) \
        != report_fingerprint([_report(**{field: second})])
    assert report_fingerprint([_report(**{field: first})]) \
        == report_fingerprint([_report(**{field: dict(first)})])


def test_scaled_returns_modified_copy():
    cfg = ExperimentConfig()
    other = cfg.scaled(num_workers=2)
    assert other.num_workers == 2
    assert cfg.num_workers == 8


# ----------------------------------------------------------------------
# --trace-out: one file per run
# ----------------------------------------------------------------------
def _traced_sweep(directory, jobs):
    cfg = ExperimentConfig(num_workers=2, sim_ms=2, warmup_ms=1,
                           trace_out=str(directory / "t.json"))
    tasks = [("vessel", cfg, dict(l_specs=[("memcached", "mc", rate)],
                                  b_specs=()))
             for rate in (0.3, 0.6)]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run_colocation_batch(tasks, jobs=jobs)
    return {path.name: path.read_bytes()
            for path in sorted(directory.iterdir())}, buffer.getvalue()


def test_trace_out_writes_one_file_per_run_of_a_sweep(tmp_path):
    """Regression: every run used to rewrite ``trace_out`` itself, so a
    sweep kept only its last run's trace."""
    (tmp_path / "a").mkdir()
    files, stdout = _traced_sweep(tmp_path / "a", jobs=1)
    assert len(files) == 2
    for name, data in files.items():
        assert name.startswith("t.vessel-") and name.endswith(".json")
        assert json.loads(data)["traceEvents"]
        assert f"wrote Chrome trace to {tmp_path / 'a' / name}" in stdout
    assert len(set(files.values())) == 2


def test_trace_out_names_match_across_jobs(tmp_path):
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    serial, _ = _traced_sweep(tmp_path / "one", jobs=1)
    fanned, _ = _traced_sweep(tmp_path / "two", jobs=2)
    assert serial == fanned


def test_trace_file_writes_exactly_that_path(tmp_path):
    path = tmp_path / "exact.json"
    cfg = ExperimentConfig(num_workers=2, sim_ms=2, warmup_ms=1)
    with contextlib.redirect_stdout(io.StringIO()):
        run_colocation("vessel", cfg, l_specs=[("memcached", "mc", 0.3)],
                       b_specs=(), trace_file=str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["exact.json"]
    assert json.loads(path.read_text())["traceEvents"]


# ----------------------------------------------------------------------
# Golden layered runs: run_colocation must stay byte-identical
# ----------------------------------------------------------------------
GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_run_colocation.json")


def _golden_cases():
    from repro.net import NetConfig
    from repro.experiments import flashcrowd
    from repro.faults.plan import FaultPlan
    from repro.overload.churn import ChurnConfig
    from repro.overload.trace import LoadTrace

    small = ExperimentConfig(num_workers=4, sim_ms=6, warmup_ms=2)
    net_cfg = small.scaled(net=flashcrowd.hardened_net(None),
                           policy="autoscale",
                           policy_params={"slo_p99_us": 200.0},
                           latency_breakdown=True, trace_requests=2,
                           op_breakdown=True)
    plan = (FaultPlan(seed=42)
            .drop_packets(0.02)
            .delay_packets(2 * US, probability=0.05, at_ns=3 * MS)
            .drop_uintr(0.05, at_ns=3 * MS))
    return {
        "vessel_churn_queues": ("vessel", small, dict(
            l_specs=[("memcached", "mc", 1.0)],
            churn=ChurnConfig(tenants=2, lifetime_us=300.0,
                              respawn_gap_us=100.0, rate_mops=0.2),
            track_queues=True)),
        "fig13_vessel_cap": ("vessel", small, dict(
            l_specs=[("memcached", "mc", 1.0)], b_specs=("membench",),
            bus_sensitivity=4.0, bw_cap=("membench", 20.0))),
        "fig13_caladan_cap": ("caladan", small, dict(
            l_specs=[("memcached", "mc", 1.0)], b_specs=("membench",),
            bus_sensitivity=4.0, bw_cap=("membench", 20.0))),
        "vessel_net_overload_chaos": ("vessel", net_cfg, dict(
            l_specs=[("memcached", "mc", 1.2)],
            admission=flashcrowd.admission_for(net_cfg),
            trace=flashcrowd.flash_crowd_trace(6, 10.0),
            fault_plan=plan, track_queues=True)),
        "cluster_server_task": ("vessel", small.scaled(
            net=NetConfig(server_id=1, clients=2)), dict(
            l_specs=[("memcached", "mc", 1.0)], b_specs=("membench",),
            bus_sensitivity=1.5,
            trace=LoadTrace.from_rates(1.0, 1.0,
                                       [0.8, 1.2, 1.0, 0.0, 1.5, 1.0]),
            rng_namespace="cluster/server1")),
        # One case per baseline system, so each system's begin/end/evict
        # paths are pinned.  Arachne's estimator first fires at 50 ms.
        "arachne_estimator": ("arachne", small.scaled(sim_ms=60), dict(
            l_specs=[("memcached", "mc", 1.5)])),
        "ideal_l_app": ("ideal", small.scaled(latency_breakdown=True), dict(
            l_specs=[("memcached", "mc", 1.0)])),
        "linux_cfs": ("linux-cfs", small.scaled(latency_breakdown=True),
                      dict(l_specs=[("memcached", "mc", 0.5)])),
        "caladan_dr_h_two_l_apps": ("caladan-dr-h",
                                    small.scaled(latency_breakdown=True),
                                    dict(l_specs=[("memcached", "mc", 1.0),
                                                  ("silo", "silo", 0.05)])),
    }


def _serialize(report, stdout):
    out = report_fields(report)
    out["stdout"] = stdout
    # Round-trip so int dict keys compare like the stored JSON's.
    return json.loads(json.dumps(out, sort_keys=True))


def _run_golden_case(name):
    system_name, cfg, kwargs = _golden_cases()[name]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        report = run_colocation(system_name, cfg, **kwargs)
    return _serialize(report, buffer.getvalue())


@pytest.mark.parametrize("name", sorted(_golden_cases()))
def test_run_colocation_matches_golden(name):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert _run_golden_case(name) == golden[name]


if __name__ == "__main__":
    # Re-capture: PYTHONPATH=src python tests/experiments/test_common.py
    with open(GOLDEN_PATH, "w") as handle:
        json.dump({name: _run_golden_case(name)
                   for name in sorted(_golden_cases())},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
