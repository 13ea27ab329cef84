"""Unit tests for the load-balancer policies (pure control plane)."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.lb import (
    ConsistentHashLB, LeastLoadedLB, RoundRobinLB, make_lb)
from repro.cluster.source import make_batches
from repro.sim.rng import RngStreams


def _population(num_servers=4, batches=16, hot_fraction=0.5,
                hot_batches=2, seed=7, **overrides):
    cluster = ClusterConfig(num_servers=num_servers, batches=batches,
                            hot_fraction=hot_fraction,
                            hot_batches=hot_batches, **overrides)
    return cluster, make_batches(cluster,
                                 RngStreams(seed).spawn("cluster"))


# -- round-robin -------------------------------------------------------

def test_round_robin_deals_cyclically():
    cluster, batches = _population()
    assignment = RoundRobinLB(cluster).assign(batches)
    assert assignment == [b.index % cluster.num_servers for b in batches]
    counts = [assignment.count(s) for s in range(cluster.num_servers)]
    assert max(counts) - min(counts) <= 1  # counts balanced...
    weights = [0.0] * cluster.num_servers
    for batch, server in zip(batches, assignment):
        weights[server] += batch.weight
    assert max(weights) > 1.5 / cluster.num_servers  # ...weights not


def test_round_robin_never_rebalances():
    cluster, batches = _population()
    lb = RoundRobinLB(cluster)
    assignment = lb.assign(batches)
    before = list(assignment)
    assert lb.rebalance(assignment, [9.0, 0.0, 0.0, 0.0],
                        [b.weight for b in batches]) == []
    assert assignment == before


# -- least-loaded ------------------------------------------------------

def test_least_loaded_rebalance_is_deterministic():
    cluster, batches = _population()
    rates = [b.weight * 10.0 for b in batches]
    loads = [6.0, 1.0, 2.0, 1.0]
    lb_a, lb_b = LeastLoadedLB(cluster), LeastLoadedLB(cluster)
    assign_a = lb_a.assign(batches)
    assign_b = lb_b.assign(batches)
    moves_a = lb_a.rebalance(assign_a, loads, rates)
    moves_b = lb_b.rebalance(assign_b, loads, rates)
    assert moves_a == moves_b
    assert assign_a == assign_b
    assert moves_a  # the skewed fleet actually triggered migration


def test_least_loaded_shrinks_the_spread():
    cluster, batches = _population()
    lb = LeastLoadedLB(cluster)
    assignment = lb.assign(batches)
    rates = [b.weight * 10.0 for b in batches]
    loads = [0.0] * cluster.num_servers
    for batch_idx, server in enumerate(assignment):
        loads[server] += rates[batch_idx]
    spread_before = max(loads) - min(loads)
    moves = lb.rebalance(assignment, loads, rates)
    assert 0 < len(moves) <= cluster.migrate_per_epoch
    after = [0.0] * cluster.num_servers
    for batch_idx, server in enumerate(assignment):
        after[server] += rates[batch_idx]
    assert max(after) - min(after) < spread_before
    for batch_idx, src, dst in moves:
        assert assignment[batch_idx] == dst
        assert src != dst


def test_least_loaded_ties_break_by_lowest_index():
    cluster = ClusterConfig(num_servers=4, batches=8,
                            migrate_per_epoch=1)
    lb = LeastLoadedLB(cluster)
    # Servers 0 and 2 equally overloaded, 1 and 3 equally idle: the
    # move must come off server 0 and land on server 1.
    assignment = [0, 1, 2, 3, 0, 1, 2, 3]
    rates = [1.0] * 8
    moves = lb.rebalance(assignment, [5.0, 1.0, 5.0, 1.0], rates)
    assert moves == [(0, 0, 1)]


def test_least_loaded_balanced_fleet_is_left_alone():
    cluster, batches = _population(hot_fraction=0.0)
    lb = LeastLoadedLB(cluster)
    assignment = lb.assign(batches)
    before = list(assignment)
    assert lb.rebalance(assignment, [1.0] * cluster.num_servers,
                        [b.weight for b in batches]) == []
    assert assignment == before


def test_least_loaded_plans_against_the_stale_view():
    # The telemetry (not the true batch sums) drives migration: with
    # loads reported equal, nothing moves even though the real
    # assignment is lopsided.
    cluster = ClusterConfig(num_servers=2, batches=4)
    lb = LeastLoadedLB(cluster)
    assignment = [0, 0, 0, 0]
    assert lb.rebalance(assignment, [1.0, 1.0], [2.0] * 4) == []
    assert assignment == [0, 0, 0, 0]


# -- consistent hash ---------------------------------------------------

def test_consistent_hash_is_stable_and_deterministic():
    cluster, batches = _population()
    a = ConsistentHashLB(cluster).assign(batches)
    b = ConsistentHashLB(cluster).assign(batches)
    assert a == b
    assert set(a) <= set(range(cluster.num_servers))


def test_make_lb_rejects_unknown_policy():
    cluster = ClusterConfig(lb_policy="round-robin")
    assert make_lb(cluster).name == "round-robin"
    with pytest.raises(ValueError, match="nope"):
        make_lb(ClusterConfig(lb_policy="nope"))
