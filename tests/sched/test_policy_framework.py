"""Tests for the pluggable-policy framework: registry, mechanism
validation (containment of buggy policies), and how ``VesselSystem``
takes its policy."""

import random
from collections import deque
from types import GeneratorType

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.obs.ledger import OpLedger
from repro.sched.policy import (
    DEFAULT_L_PREEMPT_QUANTUM_NS, DEFAULT_ROTATION_QUANTUM_NS,
    _REGISTRY, Rotate, SchedPolicy, _load_builtin_policies, make_policy,
    register_policy)
from repro.uprocess.threads import UThreadState
from repro.vessel.scheduler import VesselSystem
from repro.workloads.base import OpenLoopSource, Request
from repro.workloads.linpack import linpack_app
from repro.workloads.memcached import memcached_app
from repro.experiments.common import make_l_app


def run_system(policy=None, rate=1.0, sim_ms=6, **system_kwargs):
    """One small memcached run; returns (system, report, ledger)."""
    sim = Simulator()
    ledger = OpLedger(sim=sim)
    machine = Machine(sim, CostModel(), 4, ledger=ledger)
    rngs = RngStreams(42)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:],
                          policy=policy, **system_kwargs)
    app, sampler = make_l_app("memcached", "memcached", rngs)
    system.add_app(app)
    system.start()
    OpenLoopSource(sim, app, system.submit, rate, sampler,
                   rngs.stream("arrivals/memcached"))
    sim.at(1 * MS, system.begin_measurement)
    sim.run(until=sim_ms * MS)
    return system, system.report(), ledger


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_builtin_policies_registered():
    for name in ("default", "mlfq", "sjf", "trust-group", "priority"):
        assert make_policy(name).name == name
    assert type(make_policy("default")) is SchedPolicy  # the §4.5 base


def test_make_policy_unknown_name():
    with pytest.raises(ValueError, match="unknown"):
        make_policy("no-such-policy")


def test_make_policy_forwards_params():
    policy = make_policy("mlfq", levels=5, base_quantum_ns=7_000)
    assert policy.levels == 5
    assert policy.base_quantum_ns == 7_000
    policy = make_policy("default", rotation_quantum_ns=1_234)
    assert policy.rotation_quantum_ns == 1_234


def test_register_requires_concrete_name():
    with pytest.raises(ValueError):
        @register_policy
        class Nameless(SchedPolicy):
            pass  # inherits name == "default"


def test_register_rejects_a_second_class_under_a_taken_name():
    with pytest.raises(ValueError, match="already belongs to SchedPolicy"):
        @register_policy
        class Impostor(SchedPolicy):
            name = "default"
    assert type(make_policy("default")) is SchedPolicy


# ----------------------------------------------------------------------
# How VesselSystem takes its policy
# ----------------------------------------------------------------------
def test_default_policy_is_the_vessel_policy(sim, machine, rngs):
    system = VesselSystem(sim, machine, rngs)
    assert type(system.policy) is SchedPolicy
    assert system.policy.rotation_quantum_ns == DEFAULT_ROTATION_QUANTUM_NS
    assert system.policy.l_preempt_quantum_ns == \
        DEFAULT_L_PREEMPT_QUANTUM_NS


def test_policy_accepts_registry_name(sim, machine, rngs):
    system = VesselSystem(sim, machine, rngs, policy="mlfq")
    assert system.policy.name == "mlfq"


# ----------------------------------------------------------------------
# Containment: a buggy policy is rejected, not obeyed
# ----------------------------------------------------------------------
class BuggyIdlePolicy(SchedPolicy):
    """Emits Rotate from on_core_idle — never valid there (rotation is
    only meaningful at a request boundary)."""

    name = "test-buggy-idle"

    def on_core_idle(self, core_state):
        return Rotate(core_state.core.id)


def test_invalid_decision_is_rejected_and_counted():
    system, report, ledger = run_system(policy=BuggyIdlePolicy())
    assert system.policy_rejects > 0
    assert ledger.op_counts().get("policy:rejected", 0) > 0
    # The system survives the buggy policy: placement still happens via
    # on_arrival, so requests keep completing.
    assert report.completed.get("memcached", 0) > 0


def test_default_policy_never_rejected():
    system, report, ledger = run_system()
    assert system.policy_rejects == 0
    assert "policy:rejected" not in ledger.op_counts()
    assert report.completed.get("memcached", 0) > 0


# ----------------------------------------------------------------------
# on_arrival: the bounded running-thread count decides like a full one
# ----------------------------------------------------------------------
#: every registered policy that keeps the base class's arrival path
_load_builtin_policies()
INHERITS_ON_ARRIVAL = sorted(
    name for name, cls in _REGISTRY.items()
    if cls.on_arrival is SchedPolicy.on_arrival)


def full_count_on_arrival(policy, app_state):
    """Reference arrival path: counts every RUNNING thread."""
    app = app_state.app
    if not app.queue or not app_state.parked:
        return
    active = sum(1 for t in app_state.threads
                 if t.state is UThreadState.RUNNING)
    deficit = min(len(app.queue) - active - app_state.queued_servers,
                  len(app_state.parked), policy.activation_burst)
    for _ in range(max(0, deficit)):
        decision = policy.place_one(app_state)
        if decision is None:
            break
        yield decision


def random_app_state(policy_name, seed):
    """An unstarted VESSEL system whose L-app and cores are put in a
    seeded random state; returns (policy, the L-app's state)."""
    rng = random.Random(seed)
    workers = rng.randint(2, 12)
    sim = Simulator()
    machine = Machine(sim, CostModel(), workers + 1)
    policy = make_policy(policy_name,
                         activation_burst=rng.choice((1, 2, 4, 8)))
    system = VesselSystem(sim, machine, RngStreams(seed),
                          worker_cores=machine.cores[1:], policy=policy)
    app = memcached_app("mc")
    system.add_app(app)
    system.add_app(linpack_app("lp"))
    state = policy.ctx.app_state("mc")
    be_threads = policy.ctx.app_state("lp").threads
    for thread in state.threads:
        thread.state = rng.choice((UThreadState.RUNNING,
                                   UThreadState.PARKED, UThreadState.DEAD))
    state.parked = deque(t for t in state.threads
                         if t.state is UThreadState.PARKED
                         and rng.random() < 0.7)
    state.queued_servers = rng.randint(0, workers)
    for _ in range(rng.randint(0, 2 * workers)):
        app.queue.append(Request(app, 0, 1_000, 0))
    for index, core_state in enumerate(policy.ctx.core_states()):
        core_state.kind = rng.choice((None, "L", "B"))
        if core_state.kind == "B":
            core_state.thread = be_threads[index]
        elif core_state.kind == "L":
            core_state.thread = state.threads[index]
    return policy, state


def decision_key(decision):
    return (type(decision).__name__,) + tuple(
        getattr(decision, slot) for slot in type(decision).__slots__)


@pytest.mark.parametrize("policy_name", INHERITS_ON_ARRIVAL)
def test_bounded_count_matches_full_count(policy_name):
    outcomes = set()
    for seed in range(120):
        policy, state = random_app_state(policy_name, seed)
        expected = [decision_key(d)
                    for d in full_count_on_arrival(policy, state)]
        got = [decision_key(d) for d in policy.on_arrival(state)]
        assert got == expected, f"seed {seed}"
        need = len(state.app.queue) - state.queued_servers
        running = sum(1 for t in state.threads
                      if t.state is UThreadState.RUNNING)
        if not state.parked or need <= 0:
            outcomes.add("nothing to cover")
        elif running >= need:
            outcomes.add("covered by running threads")
        else:
            outcomes.add("placed" if got else "nowhere to place")
    # The seeds reach every branch of the bounded count.
    assert {"nothing to cover", "covered by running threads",
            "placed"} <= outcomes


@pytest.mark.parametrize("policy_name", INHERITS_ON_ARRIVAL)
def test_arrival_with_nothing_to_place_builds_no_generator(policy_name):
    """The per-arrival path returns ``()`` whenever the bounded count
    decides that no thread needs activating; a generator is built only
    when a placement is attempted."""
    empty = attempted = 0
    for seed in range(120):
        policy, state = random_app_state(policy_name, seed)
        need = len(state.app.queue) - state.queued_servers
        running = sum(1 for t in state.threads
                      if t.state is UThreadState.RUNNING)
        result = policy.on_arrival(state)
        if not state.parked or need <= 0 or running >= need:
            assert result == (), f"seed {seed}"
            empty += 1
        else:
            assert isinstance(result, GeneratorType), f"seed {seed}"
            attempted += 1
    assert empty and attempted
