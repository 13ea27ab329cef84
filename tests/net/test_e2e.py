"""End-to-end: run_colocation over the simulated cluster fabric."""

from dataclasses import asdict

import pytest

from repro.experiments.common import (
    ExperimentConfig,
    l_capacity_mops,
    make_payload_sampler,
    run_colocation,
)
from repro.faults import FaultPlan
from repro.net import NetConfig
from repro.sim.rng import RngStreams
from repro.sim.units import MS
from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS


def _net_cfg(**overrides):
    return ExperimentConfig(num_workers=2, sim_ms=4, warmup_ms=1,
                            net=NetConfig(), **overrides)


def _run(system="vessel", cfg=None, **kwargs):
    cfg = cfg or _net_cfg()
    rate = 0.3 * l_capacity_mops(cfg, MEMCACHED_MEAN_SERVICE_NS)
    return run_colocation(system, cfg,
                          l_specs=[("memcached", "memcached", rate)],
                          **kwargs)


def test_net_run_reports_client_latency():
    report = _run()
    assert report.completed["memcached"] > 0
    client_p99 = report.client_p99_us("memcached")
    server_p99 = report.latency["memcached"]["p99_us"]
    assert client_p99 > 0
    # The network path only ever adds latency on top of the server path.
    assert client_p99 >= server_p99
    counters = report.net_ops["memcached"]
    assert counters["offered"] > 0
    assert counters["completed"] > 0
    assert counters["completed"] <= counters["offered"]


def test_net_run_is_deterministic_under_identical_seed():
    assert asdict(_run()) == asdict(_run())


def test_net_run_varies_with_seed():
    a = _run(cfg=_net_cfg(seed=1))
    b = _run(cfg=_net_cfg(seed=2))
    assert a.net_ops["memcached"] != b.net_ops["memcached"]


def test_direct_submit_path_has_no_net_state():
    cfg = ExperimentConfig(num_workers=2, sim_ms=4, warmup_ms=1)
    report = run_colocation("vessel", cfg,
                            l_specs=[("memcached", "memcached", 0.3)])
    assert report.client_latency == {}
    assert report.net_ops == {}


def test_packet_faults_are_observed_and_contained():
    plan = (FaultPlan(seed=99)
            .drop_packets(0.05, at_ns=1 * MS)
            .delay_packets(20_000, probability=0.05, at_ns=1 * MS))
    report = _run(fault_plan=plan)
    assert sum(report.fault_injected.values()) > 0
    counters = report.net_ops["memcached"]
    # Dropped packets were observed by clients and retried, never
    # silently lost from the accounting.
    assert counters["drops_observed"] > 0
    assert counters["retries"] > 0
    assert report.uncontained == []


def test_packet_faults_require_a_fabric():
    cfg = ExperimentConfig(num_workers=2, sim_ms=2, warmup_ms=1)
    with pytest.raises(RuntimeError, match="network fabric"):
        run_colocation("vessel", cfg,
                       l_specs=[("memcached", "memcached", 0.3)],
                       fault_plan=FaultPlan(seed=1).drop_packets(0.1))


@pytest.mark.parametrize("kind,name", [("memcached", "memcached"),
                                       ("silo", "silo")])
def test_payload_samplers_produce_positive_sizes(kind, name):
    sampler = make_payload_sampler(kind, name, RngStreams(5))
    sizes = [sampler() for _ in range(200)]
    assert all(bytes_in > 0 and bytes_out > 0
               for bytes_in, bytes_out in sizes)
    # Requests and responses are not a single constant size.
    assert len(set(sizes)) > 10


def test_payload_samplers_are_seed_deterministic():
    a = make_payload_sampler("silo", "silo", RngStreams(5))
    b = make_payload_sampler("silo", "silo", RngStreams(5))
    assert [a() for _ in range(50)] == [b() for _ in range(50)]


def test_make_payload_sampler_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_payload_sampler("mysql", "m", RngStreams(1))


def test_net_config_validation():
    cfg = NetConfig(rings=0)
    assert cfg.num_rings(8) == 8
    assert cfg.num_rings(0) == 1
    assert NetConfig(rings=3).num_rings(8) == 3
