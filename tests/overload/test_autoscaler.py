"""SLO autoscaler policy: control law, harvest/return, composition."""

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.obs.timeseries import GaugeSeries
from repro.overload.autoscaler import SloAutoscalePolicy
from repro.sched.policy import make_policy
from repro.vessel.scheduler import VesselSystem
from repro.workloads.base import OpenLoopSource
from repro.workloads.linpack import linpack_app
from repro.workloads.memcached import UsrServiceSampler, memcached_app


def build(policy, workers=4, rate=1.2, seed=11, ledger=None):
    sim = Simulator()
    machine = Machine(sim, CostModel(), workers + 1, ledger=ledger)
    rngs = RngStreams(seed)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:], policy=policy)
    app = memcached_app("mc")
    system.add_app(app)
    system.add_app(linpack_app())
    system.start()
    OpenLoopSource(sim, app, system.submit, rate,
                   UsrServiceSampler(rngs.stream("svc")),
                   rngs.stream("arrivals"))
    return sim, system, app


def test_registered_in_policy_zoo():
    policy = make_policy("autoscale", slo_p99_us=50.0)
    assert isinstance(policy, SloAutoscalePolicy)
    assert policy.slo_p99_ns == 50_000


def test_harvests_under_tight_slo():
    # An SLO below the achievable tail forces harvesting: the policy
    # must claw back best-effort cores (and report it).
    policy = SloAutoscalePolicy(slo_p99_us=2.0, min_samples=16,
                                hysteresis_periods=1000)
    sim, system, app = build(policy, rate=1.5)
    sim.run(until=6 * MS)
    assert policy.harvests > 0
    assert policy.be_allowed < policy._total_cores
    snap = policy.scaling_snapshot()
    assert snap["harvests"] == policy.harvests
    assert snap["total_cores"] == 4
    # The system keeps serving throughout.
    assert app.completed > 0


def test_be_core_cap_gauge_registered_through_the_system():
    policy = SloAutoscalePolicy(slo_p99_us=2.0, min_samples=16,
                                hysteresis_periods=1000)
    sim, system, _ = build(policy, rate=1.5)
    gauges = GaugeSeries(sim, tick_ns=MS)
    system.add_probes(gauges)
    assert list(gauges.samples) == ["be_core_cap"]
    gauges.start()
    sim.run(until=6 * MS)
    assert gauges.samples["be_core_cap"][-1][1] == policy.be_allowed
    plain = GaugeSeries(sim)
    build(make_policy("default"))[1].add_probes(plain)
    assert plain.samples == {}


def test_returns_after_calm_period():
    # Start harvested, then observe a trivially satisfiable SLO: the
    # hysteresis must eventually return cores to the BE pool.
    policy = SloAutoscalePolicy(slo_p99_us=100_000.0, min_samples=8,
                                hysteresis_periods=2)
    sim, system, app = build(policy, rate=0.3)
    policy.be_allowed = 0  # pretend an earlier storm harvested everything
    policy._total_cores = 4
    sim.run(until=4 * MS)
    assert policy.returns > 0
    assert policy.be_allowed > 0


def test_be_cap_enforced_on_idle_cores():
    # With the cap at zero from boot, idle cores must never pick up
    # best-effort work even though linpack is runnable throughout.
    policy = SloAutoscalePolicy(slo_p99_us=100_000.0,
                                hysteresis_periods=10**9)
    policy.be_allowed = 0  # cap set before the system boots
    sim, system, app = build(policy, rate=0.2)
    sim.run(until=1 * MS)
    assert sum(1 for cs in system._cores.values() if cs.kind == "B") == 0
    assert app.completed > 0  # latency traffic unaffected


def test_windows_follow_app_lifecycle():
    policy = SloAutoscalePolicy()
    sim, system, app = build(policy, rate=0.5)
    sim.run(until=2 * MS)
    assert "mc" in policy._windows
    assert len(policy._windows["mc"]) > 0
    newcomer = memcached_app("late")
    system.add_app(newcomer)
    assert "late" in policy._windows
    system.remove_app("late")
    assert "late" not in policy._windows
    # Batch apps never get a latency window.
    assert "linpack" not in policy._windows


def test_control_actions_charged_to_ledger():
    # Every harvest/return/cap-preempt is an auditable policy op.
    from repro.obs.ledger import OpLedger

    ledger = OpLedger()
    policy = SloAutoscalePolicy(slo_p99_us=2.0, min_samples=16,
                                hysteresis_periods=1000)
    sim, system, app = build(policy, rate=1.5, ledger=ledger)
    sim.run(until=6 * MS)
    assert policy.harvests > 0
    counts = ledger.op_counts("policy")
    assert counts["autoscale:harvest"] == policy.harvests
    assert counts["autoscale:cap_preempt"] > 0
    assert counts.get("autoscale:return", 0) == policy.returns


def test_no_ledger_ops_without_a_ledger():
    # The default NULL_LEDGER path must stay byte-identical: the guard
    # is `ledger.enabled`, so a ledger-less run counts nothing.
    policy = SloAutoscalePolicy(slo_p99_us=2.0, min_samples=16,
                                hysteresis_periods=1000)
    sim, system, app = build(policy, rate=1.5)
    sim.run(until=6 * MS)
    assert policy.harvests > 0
    assert "autoscale:harvest" not in system.ledger.op_counts()


def test_deterministic_under_seed():
    def once():
        policy = SloAutoscalePolicy(slo_p99_us=2.0, min_samples=16)
        sim, system, app = build(policy, rate=1.5, seed=23)
        sim.run(until=5 * MS)
        return (app.completed, policy.harvests, policy.returns,
                policy.be_allowed, sim.events_fired)

    assert once() == once()
