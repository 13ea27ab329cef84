"""The front-end load-balancer tier.

Three pluggable policies decide which server each connection batch
lands on, mirroring the front-end choices a real fleet has:

* **round-robin** — the L4 baseline: batches are dealt out cyclically.
  It balances batch *counts* and is blind to *weights*, so a hot-key
  population leaves one server carrying far more than 1/N of the load.
* **least-loaded** — an L7 balancer with feedback.  It starts from the
  same count-balanced deal (at t=0 it has observed nothing), then each
  control epoch it sees per-server load and per-batch request rates
  *lagged by* ``staleness_epochs`` and migrates up to
  ``migrate_per_epoch`` batches from the most- to the least-loaded
  server.  A migration happens only when the (stale) rates say it
  shrinks the spread, so the policy converges instead of oscillating —
  but staleness means it chases where the load *was*.
* **consistent-hash** — keys hash onto a ring of ``vnodes`` virtual
  nodes per server.  Placement is stable under server add/remove (only
  the arcs owned by the changed server move), which is exactly why it
  cannot react to skew: a hot key class stays pinned to its ring
  successor no matter how hot it gets.

Policies are pure functions of their inputs — no RNG, no wall clock —
so the control plane that drives them is deterministic by
construction.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple, Type

from repro.cluster.config import ClusterConfig
from repro.cluster.source import ConnectionBatch

#: one migration: (batch index, source server, destination server)
Migration = Tuple[int, int, int]


class LBPolicy:
    """Interface of a front-end placement policy."""

    name = "abstract"

    def __init__(self, cluster: ClusterConfig) -> None:
        self.cluster = cluster
        self.num_servers = cluster.num_servers

    def assign(self, batches: Sequence[ConnectionBatch]) -> List[int]:
        """Initial placement: server index for each batch, in order."""
        raise NotImplementedError

    def rebalance(self, assignment: List[int],
                  server_loads: Sequence[float],
                  batch_rates: Sequence[float]) -> List[Migration]:
        """One control epoch of feedback-driven migration.

        ``server_loads`` and ``batch_rates`` are the balancer's *stale*
        view (lagged by ``staleness_epochs``); ``assignment`` is the
        live placement and is mutated in place for each migration
        returned.  The default is the static policies' answer: none.
        """
        return []


class RoundRobinLB(LBPolicy):
    """Deal batches out cyclically — counts balanced, weights ignored."""

    name = "round-robin"

    def assign(self, batches: Sequence[ConnectionBatch]) -> List[int]:
        return [batch.index % self.num_servers for batch in batches]


class LeastLoadedLB(LBPolicy):
    """Feedback-driven migration on top of the round-robin deal.

    Cold start is count-balanced (nothing has been observed yet); from
    then on every epoch greedily moves the heaviest batch whose move
    strictly shrinks the load spread between the most- and
    least-loaded servers, up to ``migrate_per_epoch`` moves.  All
    tie-breaks are by lowest index, so two runs of the same fleet make
    identical decisions.
    """

    name = "least-loaded"

    #: relative spread below which the fleet counts as balanced
    SPREAD_TOLERANCE = 0.02

    def assign(self, batches: Sequence[ConnectionBatch]) -> List[int]:
        return [batch.index % self.num_servers for batch in batches]

    def rebalance(self, assignment: List[int],
                  server_loads: Sequence[float],
                  batch_rates: Sequence[float]) -> List[Migration]:
        # The balancer plans against what it *observed* — the stale
        # ``server_loads`` — updated only by its own hypothetical moves
        # this epoch.  With a large staleness lag a server it already
        # drained still looks hot for several epochs, so the policy
        # over-corrects; that is the intended fidelity, not a bug.
        loads = list(server_loads)
        mean_load = sum(loads) / self.num_servers
        migrations: List[Migration] = []
        for _ in range(self.cluster.migrate_per_epoch):
            src = min(range(self.num_servers), key=lambda s: (-loads[s], s))
            dst = min(range(self.num_servers), key=lambda s: (loads[s], s))
            gap = loads[src] - loads[dst]
            if mean_load <= 0 or gap < self.SPREAD_TOLERANCE * mean_load:
                break
            # Heaviest batch on src whose move strictly improves the
            # pairwise max: any rate below the gap qualifies.
            candidate = -1
            candidate_rate = 0.0
            for batch_idx, server in enumerate(assignment):
                rate = batch_rates[batch_idx]
                if server == src and 0.0 < rate < gap \
                        and rate > candidate_rate:
                    candidate = batch_idx
                    candidate_rate = rate
            if candidate < 0:
                break
            assignment[candidate] = dst
            loads[src] -= candidate_rate
            loads[dst] += candidate_rate
            migrations.append((candidate, src, dst))
        return migrations


class ConsistentHashLB(LBPolicy):
    """SHA-256 ring with virtual nodes; stable, skew-oblivious."""

    name = "consistent-hash"

    def __init__(self, cluster: ClusterConfig) -> None:
        super().__init__(cluster)
        points: List[Tuple[int, int]] = []
        for server in range(cluster.num_servers):
            for vnode in range(cluster.vnodes):
                points.append((self._point(f"server{server}/vnode{vnode}"),
                               server))
        points.sort()
        self._ring_points = [p for p, _ in points]
        self._ring_servers = [s for _, s in points]

    @staticmethod
    def _point(label: str) -> int:
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def lookup(self, ring_hash: int) -> int:
        """Clockwise successor of a key's position on the ring."""
        idx = bisect.bisect_right(self._ring_points, ring_hash)
        if idx == len(self._ring_points):
            idx = 0
        return self._ring_servers[idx]

    def assign(self, batches: Sequence[ConnectionBatch]) -> List[int]:
        return [self.lookup(batch.ring_hash()) for batch in batches]


LB_POLICIES: Dict[str, Type[LBPolicy]] = {
    policy.name: policy
    for policy in (RoundRobinLB, LeastLoadedLB, ConsistentHashLB)
}


def make_lb(cluster: ClusterConfig) -> LBPolicy:
    """Instantiate the policy named by ``cluster.lb_policy``."""
    try:
        policy = LB_POLICIES[cluster.lb_policy]
    except KeyError:
        raise ValueError(
            f"unknown lb_policy {cluster.lb_policy!r}; "
            f"choose from {sorted(LB_POLICIES)}") from None
    return policy(cluster)
