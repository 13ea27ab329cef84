"""End-to-end fleet determinism: plan once, shard anywhere, same bytes."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.experiments.common import ExperimentConfig, run_colocation
from repro.faults.plan import FaultPlan


def _cfg(seed=5):
    return ExperimentConfig(num_workers=2, sim_ms=3, warmup_ms=1,
                            seed=seed)


def _fleet(**overrides):
    params = dict(num_servers=2, batches=8, connections=10_000,
                  hot_fraction=0.5, hot_batches=2, load_fraction=0.5,
                  lb_policy="least-loaded", clients_per_server=1,
                  epoch_ms=0.5)
    params.update(overrides)
    return ClusterConfig(**params)


def test_jobs_fanout_is_byte_identical_to_serial():
    serial = Cluster("vessel", _cfg(), _fleet()).run(jobs=1)
    fanned = Cluster("vessel", _cfg(), _fleet()).run(jobs=2)
    assert serial.fingerprint() == fanned.fingerprint()


def test_rerun_is_deterministic_under_chaos():
    plan = FaultPlan(seed=3).drop_uintr(0.05).delay_packets(
        2_000, probability=0.1)
    first = Cluster("vessel", _cfg(), _fleet()).run(
        jobs=1, fault_plan=plan)
    again = Cluster("vessel", _cfg(), _fleet()).run(
        jobs=2, fault_plan=plan)
    assert first.fingerprint() == again.fingerprint()


def test_different_seeds_give_different_fleets():
    a = Cluster("vessel", _cfg(seed=5), _fleet()).run(jobs=1)
    b = Cluster("vessel", _cfg(seed=6), _fleet()).run(jobs=1)
    assert a.fingerprint() != b.fingerprint()


def test_merge_sums_and_histogram_percentiles():
    report = Cluster("vessel", _cfg(), _fleet()).run(jobs=1)
    assert len(report.server_reports) == 2
    assert report.completed["mc"] == sum(
        r.completed["mc"] for r in report.server_reports)
    assert report.events_fired == sum(
        r.events_fired for r in report.server_reports)
    # The merged p99 sits within the per-server envelope.
    per_server = report.per_server_p99_us["mc"]
    assert len(per_server) == 2
    assert min(per_server) <= report.p99_us() <= max(per_server)
    assert report.throughput_mops() > 0


def test_coordinator_plan_schedules_are_replayable_data():
    fleet = _fleet(coordinator=True, load_fraction=0.9,
                   interference_capacity=0.6, harvest_util=0.5)
    cluster = Cluster("vessel", _cfg(), fleet)
    plan = cluster.plan()
    assert plan.cap_schedules is not None
    assert len(plan.cap_schedules) == fleet.num_servers
    for schedule in plan.cap_schedules:
        times = [t for t, _ in schedule]
        assert times == sorted(times)
        assert times[0] == 0
        assert all(0 <= cap <= _cfg().num_workers
                   for _, cap in schedule)
    assert plan.coordinator_stats["harvests"] >= 1


def test_skewed_population_reports_hot_share():
    plan = Cluster("vessel", _cfg(), _fleet(lb_policy="round-robin")) \
        .plan()
    assert plan.hottest_initial > 1.0 / 2  # skew beat the fair share
    assert plan.hottest_initial == plan.hottest_final  # rr never moves
    assert plan.migrations == []


def test_unknown_system_is_rejected():
    with pytest.raises(Exception):
        Cluster("notasystem", _cfg(), _fleet()).run(jobs=1)


# Merged figures of ``_cfg()`` / ``_fleet()``, pinned from the commit
# before the per-run histogram build moved into the cluster's server
# worker: moving it must not change what the merge computes.
_PINNED_PER_SERVER_P99_US = {"mc": [5.12, 5.12]}
_PINNED_LATENCY_SUMMARY = {"mc": {
    "count": 4025, "avg_us": 2.85403850931677, "p50_us": 2.816,
    "p90_us": 3.584, "p99_us": 4.608, "p999_us": 5.12, "max_us": 5.368}}
_PINNED_CLIENT_SUMMARY = {"mc": {
    "count": 4026, "avg_us": 3.3640218579234973, "p50_us": 3.328,
    "p90_us": 4.096, "p99_us": 5.12, "p999_us": 5.632, "max_us": 5.876}}


@pytest.mark.parametrize("jobs", [1, 2])
def test_merged_figures_match_pinned_values(jobs):
    report = Cluster("vessel", _cfg(), _fleet()).run(jobs=jobs)
    assert report.per_server_p99_us == _PINNED_PER_SERVER_P99_US
    assert report.latency_summary == _PINNED_LATENCY_SUMMARY
    assert report.client_summary == _PINNED_CLIENT_SUMMARY


def test_direct_run_builds_no_histograms():
    """Only the cluster's server worker builds the merge's histograms."""
    cluster = Cluster("vessel", _cfg(), _fleet())
    system_name, cfg, kwargs = cluster.server_tasks(cluster.plan())[0]
    report = run_colocation(system_name, cfg, **kwargs)
    assert report.latency_hist == {}
    assert report.client_hist == {}
    assert report.latency["mc"]["count"] > 0
    assert report.client_latency["mc"]["count"] > 0
