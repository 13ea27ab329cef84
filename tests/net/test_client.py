"""Client machine reliability: timeouts, retries, and duplicate guards."""

import pytest

from repro.net import LINK_DROP, NetConfig, NetFabric
from repro.sim.units import MS, US
from repro.workloads.base import Request
from repro.workloads.memcached import memcached_app


class _EchoServer:
    """A 'scheduling system' that answers every request after service_ns."""

    def __init__(self, sim):
        self.sim = sim
        self.served = 0

    def submit(self, request):
        self.served += 1
        self.sim.after(request.service_ns, self._finish, request)

    def _finish(self, request):
        request.on_complete(request, self.sim.now)


class _BlackHoleServer:
    """Accepts requests and never answers."""

    def __init__(self, sim):
        self.served = 0

    def submit(self, request):
        self.served += 1


#: an open-loop rate whose mean gap (1 s) dwarfs the 1 ms these tests
#: run: the generator's first send goes out at t=0, and under the
#: fixture's seed its next one falls after the run ends
ONE_REQUEST_MOPS = 1e-6


def _fabric(sim, rngs, server, cfg, service_ns=1_000, connections=1):
    fabric = NetFabric(sim, cfg, rngs, num_workers=2)
    app = memcached_app()
    fabric.add_workload(app, rate_mops=ONE_REQUEST_MOPS,
                        service_sampler=lambda: service_ns,
                        payload_sampler=None, connections=connections)
    fabric.connect(server)
    return fabric, app


def test_response_completes_exactly_once(sim, rngs):
    server = _EchoServer(sim)
    fabric, _ = _fabric(sim, rngs, server, NetConfig(clients=1))
    sim.run(until=1 * MS)
    stats = fabric.stats["memcached"]
    assert stats["offered"] == 1
    assert stats["completed"] == 1
    assert stats["retries"] == stats["losses"] == 0
    # Client-observed latency covers the full round trip: two link
    # crossings plus the NIC ring plus the 1 us of service.
    (latency,) = fabric.client_latency["memcached"].samples
    assert latency > 1_000 + 2 * fabric.cfg.propagation_ns


def test_timeout_retry_does_not_double_count_completions(sim, rngs):
    """Late responses to earlier attempts are duplicates, not completions."""
    server = _EchoServer(sim)
    cfg = NetConfig(clients=1, timeout_ns=50 * US, max_retries=2)
    fabric, _ = _fabric(sim, rngs, server, cfg, service_ns=100 * US)
    sim.run(until=1 * MS)
    stats = fabric.stats["memcached"]
    assert stats["offered"] == 1
    # Both timeouts fired and retransmitted before the first response.
    assert stats["timeouts"] == 2
    assert stats["retries"] == 2
    assert server.served == 3
    # All three attempts eventually completed server-side, but the
    # logical request is satisfied once: one completion, two duplicates.
    assert stats["completed"] == 1
    assert stats["dup_responses"] == 2
    assert stats["losses"] == 0
    assert fabric.client_latency["memcached"].count == 1


def test_request_lost_after_max_retries(sim, rngs):
    server = _BlackHoleServer(sim)
    cfg = NetConfig(clients=1, timeout_ns=50 * US, max_retries=2)
    fabric, _ = _fabric(sim, rngs, server, cfg)
    sim.run(until=1 * MS)
    stats = fabric.stats["memcached"]
    assert stats["offered"] == 1
    assert server.served == 3          # original + two retries
    assert stats["timeouts"] == 3
    assert stats["retries"] == 2
    assert stats["losses"] == 1
    assert stats["completed"] == 0
    assert fabric.client_latency["memcached"].count == 0


def test_observed_drop_triggers_fast_retry(sim, rngs):
    server = _EchoServer(sim)
    cfg = NetConfig(clients=1, timeout_ns=2 * MS, max_retries=2,
                    drop_retry_backoff_ns=5 * US)
    fabric, _ = _fabric(sim, rngs, server, cfg)
    calls = {"n": 0}

    def drop_first(request, nbytes):
        calls["n"] += 1
        return LINK_DROP if calls["n"] == 1 else None

    fabric.link_in.inject = drop_first
    sim.run(until=1 * MS)
    stats = fabric.stats["memcached"]
    assert stats["offered"] == 1
    assert stats["drops_observed"] == 1
    assert stats["retries"] == 1
    assert stats["completed"] == 1
    assert stats["losses"] == 0
    # The retransmission went out after the drop backoff, well before
    # the 2 ms timeout would have noticed the loss.
    (latency,) = fabric.client_latency["memcached"].samples
    assert latency < 100 * US


def test_request_latency_prefers_client_send_timestamp():
    app = memcached_app()
    request = Request(app, arrival_ns=500, service_ns=1_000)
    assert request.latency_ns(2_000) == 1_500
    request.client_send_ns = 100     # sent 400 ns before server arrival
    assert request.latency_ns(2_000) == 1_900


def test_open_loop_rate_splits_across_machines(sim, rngs):
    cfg = NetConfig(clients=4)
    fabric = NetFabric(sim, cfg, rngs, num_workers=2)
    app = memcached_app()
    fabric.add_workload(app, rate_mops=0.4,
                        service_sampler=lambda: 1_000,
                        payload_sampler=None, connections=8)
    fabric.connect(_EchoServer(sim))
    per_machine = [sum(w.rate_mops for w in m.workloads)
                   for m in fabric.machines]
    assert sum(per_machine) == pytest.approx(0.4)
    assert all(rate == pytest.approx(0.1) for rate in per_machine)
    sim.run(until=2 * MS)
    stats = fabric.stats["memcached"]
    # ~0.4 Mops for 2 ms is ~800 sends; allow generous Poisson slack.
    assert 400 < stats["offered"] < 1_600
    assert stats["completed"] > 0


def test_fabric_rejects_double_connect(sim, rngs):
    fabric, _ = _fabric(sim, rngs, _EchoServer(sim), NetConfig(clients=1))
    with pytest.raises(RuntimeError):
        fabric.connect(_EchoServer(sim))
