"""The aggregated open-loop client population.

Millions of connections cannot be objects — a fleet experiment would
spend all its time constructing clients.  Instead the population is
collapsed into *connection batches*: each batch stands for
``connections / batches`` real connections sharing a key class, and
carries the aggregate open-loop rate those connections offer.  The
balancer places batches (the way an L4 front-end places connections,
not requests), the per-server data plane replays each server's summed
batch rate as an ordinary open-loop arrival process, and the batch
weights are the *only* thing that distinguishes a uniform population
from a hot-key one.

Weights are drawn once, deterministically, from the run's named RNG
streams: a lognormal base weight per batch (real key popularity is
heavy-tailed even before skew), plus a ``hot_fraction`` of the total
load concentrated on ``hot_batches`` designated hot key classes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List

from repro.cluster.config import ClusterConfig
from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class ConnectionBatch:
    """One placed unit: a bundle of connections on one key class."""

    index: int
    #: stable key-class identity (what consistent hashing hashes)
    key: str
    #: real connections this batch aggregates
    connections: int
    #: fraction of the cluster's total offered load this batch carries
    weight: float

    def ring_hash(self) -> int:
        """Position of this batch's key class on the hash ring."""
        digest = hashlib.sha256(self.key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")


def make_batches(cluster: ClusterConfig,
                 rngs: RngStreams) -> List[ConnectionBatch]:
    """Draw the batch population (weights normalized to sum to 1).

    The hot batch indices are *sampled* from the run's RNG stream, not
    laid out on a stride, so round-robin's weakness is the honest one —
    it balances batch counts while staying blind to weights — and never
    an artifact of hot batches aligning with one ``index % N`` class.
    """
    rng = rngs.stream("cluster/batches")
    base: List[float] = [rng.lognormvariate(0.0, 0.5)
                         for _ in range(cluster.batches)]
    hot: List[int] = []
    if cluster.hot_fraction > 0:
        hot = sorted(rng.sample(range(cluster.batches),
                                cluster.hot_batches))
    cold_total = sum(w for i, w in enumerate(base) if i not in hot)
    hot_total = sum(base[i] for i in hot)
    batches: List[ConnectionBatch] = []
    for index in range(cluster.batches):
        if index in hot:
            weight = cluster.hot_fraction * base[index] / hot_total
        elif cold_total > 0:
            weight = ((1.0 - cluster.hot_fraction)
                      * base[index] / cold_total)
        else:  # pragma: no cover - all batches hot is rejected by config
            weight = 0.0
        batches.append(ConnectionBatch(
            index=index,
            key=f"key{index}",
            connections=cluster.connections_per_batch(),
            weight=weight,
        ))
    return batches


def assignment_rates(batches: List[ConnectionBatch],
                     assignment: List[int], num_servers: int,
                     total_rate_mops: float) -> List[float]:
    """Per-server offered rate implied by a batch->server assignment."""
    rates = [0.0] * num_servers
    for batch, server in zip(batches, assignment):
        rates[server] += batch.weight * total_rate_mops
    return rates


def hottest_share(batches: List[ConnectionBatch],
                  assignment: List[int], num_servers: int) -> float:
    """Largest per-server share of the total load (1/N == perfect)."""
    rates = assignment_rates(batches, assignment, num_servers, 1.0)
    return max(rates) if rates else 0.0
