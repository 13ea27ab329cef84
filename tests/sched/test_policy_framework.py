"""Tests for the pluggable-policy framework: registry, mechanism
validation (containment of buggy policies), and how ``VesselSystem``
takes its policy."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.obs.ledger import OpLedger
from repro.sched.policy import (
    DEFAULT_L_PREEMPT_QUANTUM_NS, DEFAULT_ROTATION_QUANTUM_NS,
    Rotate, SchedPolicy, available_policies, make_policy, register_policy)
from repro.vessel.scheduler import VesselSystem
from repro.vessel.policy import VesselDefaultPolicy
from repro.workloads.base import OpenLoopSource
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
    names = available_policies()
    for name in ("default", "mlfq", "sjf", "trust-group", "priority"):
        assert name in names
    assert "abstract" not in names  # the base class is not a policy


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
            pass  # inherits name == "abstract"


# ----------------------------------------------------------------------
# How VesselSystem takes its policy
# ----------------------------------------------------------------------
def test_default_policy_is_the_vessel_policy(sim, machine, rngs):
    system = VesselSystem(sim, machine, rngs)
    assert isinstance(system.policy, VesselDefaultPolicy)
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
