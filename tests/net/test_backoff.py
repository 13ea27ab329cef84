"""Client retry hardening: exponential backoff, jitter, retry budget."""

from dataclasses import replace

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS, US
from repro.sim.stats import summarize_ns
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.net import NetConfig, NetFabric
from repro.net.client import ClientMachine, _Pending, _ClientWorkload
from repro.net.link import LINK_DROP
from repro.vessel.scheduler import VesselSystem
from repro.workloads.memcached import UsrServiceSampler, memcached_app


def run_fabric(net, seed=5, rate=3.0, sim_ms=2, drop_probability=0.0):
    sim = Simulator()
    machine = Machine(sim, CostModel(), 3)
    rngs = RngStreams(seed)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:])
    fabric = NetFabric(sim, net, rngs, num_workers=2)
    app = memcached_app("mc")
    system.add_app(app)
    fabric.add_workload(app, rate, UsrServiceSampler(rngs.stream("svc")),
                        None, 8)
    fabric.connect(system)
    if drop_probability > 0:
        drop_rng = rngs.stream("test/drops")
        fabric.link_in.inject = (
            lambda request, nbytes:
            LINK_DROP if drop_rng.random() < drop_probability else None)
    system.start()
    sim.run(until=sim_ms * MS)
    return fabric


def fingerprint(fabric):
    p99 = summarize_ns(fabric.client_latency["mc"].samples)["p99_us"]
    return repr((sorted(fabric.stats["mc"].items()), round(p99, 6)))


def make_client(cfg):
    sim = Simulator()

    class _FabricStub:
        rngs = RngStreams(9)

        def bump(self, *a, **k):
            pass

        def add(self, *a, **k):
            pass

    client = ClientMachine(sim, 0, _FabricStub(), cfg)
    app = memcached_app("mc")
    workload = _ClientWorkload(app, lambda: 1000, None, [0], 1.0,
                               RngStreams(9).stream("w"))
    return client, _Pending(client, workload, 0, 1000, 64, 64)


def test_defaults_preserve_legacy_floors():
    # backoff_base_ns == 0 (the default) must leave retry timing
    # byte-identical to the pre-hardening behaviour: the floor verbatim.
    client, pending = make_client(NetConfig())
    pending.attempts = 1
    assert client._backoff_ns(pending, 0) == 0
    assert client._backoff_ns(pending, 5 * US) == 5 * US
    pending.attempts = 7
    assert client._backoff_ns(pending, 5 * US) == 5 * US


def test_exponential_growth_and_cap():
    cfg = NetConfig(backoff_base_ns=10 * US, backoff_factor=2.0,
                    backoff_max_ns=60 * US)
    client, pending = make_client(cfg)
    delays = []
    for attempts in (1, 2, 3, 4, 5):
        pending.attempts = attempts
        delays.append(client._backoff_ns(pending, 0))
    assert delays[:3] == [10 * US, 20 * US, 40 * US]
    assert delays[3] == delays[4] == 60 * US  # clamped at backoff_max_ns
    # The floor still wins when it exceeds the computed delay.
    pending.attempts = 1
    assert client._backoff_ns(pending, 15 * US) == 15 * US


def test_jitter_is_seeded_and_bounded():
    cfg = NetConfig(backoff_base_ns=10 * US, backoff_jitter=0.5)
    client_a, pending = make_client(cfg)
    pending.attempts = 1
    first = [client_a._backoff_ns(pending, 0) for _ in range(8)]
    client_b, pending_b = make_client(cfg)
    pending_b.attempts = 1
    second = [client_b._backoff_ns(pending_b, 0) for _ in range(8)]
    assert first == second  # same stream (net/backoff/0), same draws
    assert all(10 * US <= d <= 15 * US for d in first)
    assert len(set(first)) > 1  # actually jittered


def test_retry_budget_suppresses_storm():
    # Under heavy induced loss, a tiny budget converts most retries
    # into suppressions (counted as losses, never amplifying load).
    lossy = replace(NetConfig(), max_retries=5)
    budgeted = replace(lossy, retry_budget=0.05, retry_budget_cap=2.0)
    unbounded = run_fabric(lossy, drop_probability=0.3)
    bounded = run_fabric(budgeted, drop_probability=0.3)
    assert bounded.stats["mc"]["retries_suppressed"] > 0
    assert bounded.stats["mc"]["retries"] \
        < unbounded.stats["mc"]["retries"]
    # Suppressed requests are accounted as losses: conservation holds.
    assert bounded.conservation()["mc"]["balance"] == 0


def test_backoff_ns_counter_accumulates():
    cfg = replace(NetConfig(), backoff_base_ns=20 * US, max_retries=3)
    fabric = run_fabric(cfg, drop_probability=0.3)
    stats = fabric.stats["mc"]
    assert stats["retries"] > 0
    assert stats["backoff_ns"] >= stats["retries"] * 20 * US


def test_default_config_runs_byte_identical_to_itself():
    assert fingerprint(run_fabric(NetConfig())) \
        == fingerprint(run_fabric(NetConfig()))


def test_hardened_config_deterministic():
    cfg = replace(NetConfig(), backoff_base_ns=20 * US, backoff_jitter=0.5,
                  retry_budget=0.1)
    assert fingerprint(run_fabric(cfg, drop_probability=0.2)) \
        == fingerprint(run_fabric(cfg, drop_probability=0.2))
