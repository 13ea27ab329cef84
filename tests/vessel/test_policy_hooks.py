"""VESSEL resolves its per-request policy hooks once, at construction.

Where a policy keeps the base class's ``pick_request``,
``on_request_done`` or ``on_thread_park``, the serving loop pops the
app queue inline or skips the no-op hook; a policy that overrides one
must still have it called, on every request.  ``quantum_ns`` is asked
only when the core's run queue holds a thread.
"""

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.overload.autoscaler import SloAutoscalePolicy
from repro.sched.policy import SchedPolicy, make_policy
from repro.sched.zoo import SjfPolicy
from repro.vessel.scheduler import VesselSystem
from repro.workloads.base import OpenLoopSource, Request
from repro.workloads.memcached import memcached_app
from repro.workloads.synthetic import ConstantService


class _CountingPolicy(SchedPolicy):
    """The default policy, counting the per-request hooks it is asked."""

    name = "counting-test"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = {"pick_request": 0, "on_request_done": 0,
                      "on_thread_park": 0, "quantum_ns": 0}
        self.quantum_with_empty_fifo = 0

    def pick_request(self, core_state, app):
        self.calls["pick_request"] += 1
        return super().pick_request(core_state, app)

    def on_request_done(self, core_state, request):
        self.calls["on_request_done"] += 1

    def on_thread_park(self, core_state, thread):
        self.calls["on_thread_park"] += 1

    def quantum_ns(self, core_state):
        self.calls["quantum_ns"] += 1
        if not core_state.fifo:
            self.quantum_with_empty_fifo += 1
        return super().quantum_ns(core_state)


def _parts():
    sim = Simulator()
    machine = Machine(sim, CostModel(), 3)
    return sim, machine, RngStreams(1)


def _two_app_run(policy, until_ms=10):
    """Two backlogged apps on one worker core: threads queue behind each
    other, so run queues fill and quanta expire."""
    sim = Simulator()
    machine = Machine(sim, CostModel(), 2)
    rngs = RngStreams(4)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:], policy=policy)
    hog, meek = memcached_app("hog"), memcached_app("meek")
    system.add_app(hog)
    system.add_app(meek)
    system.start()
    OpenLoopSource(sim, hog, system.submit, 0.9, ConstantService(1000),
                   rngs.stream("hog"))
    OpenLoopSource(sim, meek, system.submit, 0.05, ConstantService(1000),
                   rngs.stream("meek"))
    sim.run(until=until_ms * MS)
    return system, hog, meek


def test_default_policy_hooks_resolve_to_inline_paths():
    system = VesselSystem(*_parts(), policy=make_policy("default"))
    assert system._pick_request is None
    assert system._on_request_done is None
    assert system._on_thread_park is None


def test_overridden_hooks_are_bound_and_called_per_request():
    policy = _CountingPolicy()
    system, hog, meek = _two_app_run(policy)
    assert system._pick_request == policy.pick_request
    assert system._on_request_done == policy.on_request_done
    completed = hog.completed.value + meek.completed.value
    assert completed > 1_000
    # Every completion reached the hook; every pick before it went
    # through the policy, plus the picks that found the queue empty.
    assert policy.calls["on_request_done"] == completed
    assert policy.calls["pick_request"] \
        == policy.calls["on_request_done"] + policy.calls["on_thread_park"] \
        + sum(1 for state in system._cores.values()
              if state.request is not None)
    assert policy.calls["on_thread_park"] > 0
    assert policy.calls["quantum_ns"] > 0
    assert policy.quantum_with_empty_fifo == 0
    assert system.rotations > 0


def test_counting_policy_leaves_the_run_unchanged():
    """Overriding a hook with the same behaviour gives the default's
    run: the inline paths and the bound hooks agree."""
    default, d_hog, d_meek = _two_app_run(make_policy("default"))
    counting, c_hog, c_meek = _two_app_run(_CountingPolicy())
    assert default.sim.events_fired == counting.sim.events_fired
    assert list(d_hog.latency.samples) == list(c_hog.latency.samples)
    assert list(d_meek.latency.samples) == list(c_meek.latency.samples)
    assert default.rotations == counting.rotations


def test_instance_level_override_is_honoured():
    policy = make_policy("default")
    picked = []

    def pick(core_state, app):
        request = app.pop_request()
        picked.append(request)
        return request

    policy.pick_request = pick
    system, hog, meek = _two_app_run(policy, until_ms=2)
    assert system._pick_request is pick
    assert sum(1 for r in picked if r is not None) \
        >= hog.completed.value + meek.completed.value > 0


def test_sjf_still_reorders_requests():
    """SJF serves the shortest queued request first: with one worker
    busy, a later short request overtakes earlier long ones."""
    sim, machine, rngs = _parts()
    system = VesselSystem(sim, machine, rngs, worker_cores=machine.cores[1:2],
                          policy=SjfPolicy())
    assert system._pick_request is not None
    app = memcached_app()
    system.add_app(app)
    system.start()
    order = []
    real_complete = app.complete

    def complete(request, now):
        order.append(request.service_ns)
        real_complete(request, now)

    app.complete = complete
    system.submit(Request(app, sim.now, 5_000))
    sim.run(until=4_000)
    assert not app.queue and machine.cores[1].busy  # 5 µs in service
    for service_ns in (9_000, 7_000, 1_000):
        system.submit(Request(app, sim.now, service_ns))
    sim.run(until=1 * MS)
    assert order == [5_000, 1_000, 7_000, 9_000]


def test_autoscale_policy_still_receives_request_completions(monkeypatch):
    seen = []
    original = SloAutoscalePolicy.on_request_done

    def counting(self, core_state, request):
        seen.append(request)
        original(self, core_state, request)

    monkeypatch.setattr(SloAutoscalePolicy, "on_request_done", counting)
    policy = make_policy("autoscale")
    sim, machine, rngs = _parts()
    system = VesselSystem(sim, machine, rngs, policy=policy)
    app = memcached_app()
    system.add_app(app)
    system.start()
    OpenLoopSource(sim, app, system.submit, 0.5, ConstantService(1000),
                   rngs.stream("arrivals"))
    sim.run(until=2 * MS)
    assert app.completed.value > 100
    assert len(seen) == app.completed.value
    assert len(policy._windows[app.name]) == min(policy.window, len(seen))
