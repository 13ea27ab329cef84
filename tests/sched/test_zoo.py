"""Determinism and sanity tests for the policy zoo.

Determinism is a policy contract (see ``repro.sched.zoo``): same seed
⇒ same simulation, for every policy.  Each case runs the policy-zoo
colocation twice in-process and compares the full serialized reports.
"""

import pytest

from repro.experiments.common import (
    SMOKE_PROFILE,
    ExperimentConfig,
    run_colocation,
)
from repro.experiments.policy_zoo import ZOO


def _serialize(report):
    return {
        "buckets": dict(sorted(report.buckets.items())),
        "latency": {k: dict(sorted(v.items()))
                    for k, v in sorted(report.latency.items())},
        "completed": dict(sorted(report.completed.items())),
        "useful_ns": dict(sorted(report.useful_ns.items())),
        "events_fired": report.events_fired,
    }


def _run_zoo_once(name, params, seed=42):
    cfg = ExperimentConfig(seed=seed, **SMOKE_PROFILE).scaled(
        sim_ms=6, policy=name, policy_params=params)
    return run_colocation(
        "vessel", cfg,
        l_specs=[("memcached", "mc-hi", 0.8), ("memcached", "mc-lo", 0.8)],
        b_specs=("linpack",))


@pytest.mark.parametrize("label,name,params",
                         ZOO, ids=[row[0] for row in ZOO])
def test_zoo_policy_is_deterministic(label, name, params):
    first = _serialize(_run_zoo_once(name, params))
    second = _serialize(_run_zoo_once(name, params))
    assert first == second
    # and the run actually served traffic through the policy
    assert first["completed"].get("mc-hi", 0) > 0
    assert first["completed"].get("mc-lo", 0) > 0


def test_zoo_covers_at_least_four_alternative_policies():
    names = {name for _, name, _ in ZOO}
    assert "default" in names
    assert len(names - {"default"}) >= 4


def test_trust_group_pays_forced_idle_for_isolation():
    # Strict per-app cookies on paired SMT siblings must show the
    # core-scheduling signature: strictly less best-effort throughput
    # than the unconstrained default under the identical workload.
    default = _run_zoo_once("default", {})
    trust = _run_zoo_once("trust-group", {})
    assert trust.useful_ns.get("linpack", 0) \
        < default.useful_ns.get("linpack", 0)


def test_trust_group_with_shared_cookie_relaxes():
    # Putting both memcached instances in one trust group lets them
    # share a sibling pair again, recovering batch throughput relative
    # to the strict grouping.
    strict = _run_zoo_once("trust-group", {})
    shared = _run_zoo_once(
        "trust-group", {"groups": {"mc-hi": "mc", "mc-lo": "mc"}})
    assert shared.useful_ns.get("linpack", 0) \
        >= strict.useful_ns.get("linpack", 0)
