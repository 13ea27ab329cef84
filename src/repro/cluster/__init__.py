"""Multi-server fleet simulation with a load-balancer tier.

One box is no longer the system: ``repro.cluster`` models N
VESSEL/Caladan servers behind a front-end balancer serving millions of
simulated connections.  See DESIGN.md §14 for the architecture; the
short version:

* a **control plane** (this package, pure Python, serial and cheap)
  aggregates the client population into connection batches
  (:mod:`repro.cluster.source`), assigns and re-assigns batches to
  servers under a pluggable LB policy (:mod:`repro.cluster.lb`) fed by
  a lagged fluid load model (:mod:`repro.cluster.fluid`), and runs the
  cluster-wide core-harvesting coordinator
  (:mod:`repro.cluster.coordinator`);
* a **data plane**: each server replays its balancer-assigned load
  curve through a full single-server simulation (the existing
  ``run_colocation`` stack — NIC, clients, scheduler, ledger), fanned
  out over worker processes; each server's worker turns its latency
  recorders into log-histograms;
* a **merge**: the per-server histograms fold into one cluster
  histogram via the exact log-histogram merge
  (:class:`repro.obs.hist.LogHistogram`), counters sum.

Determinism: the control plane draws only from named RNG streams, the
per-server simulations are hermetic (each gets its own spawned stream
root and a ``server_id``-namespaced fabric), and all merging happens in
server order — so ``--jobs N`` is byte-identical to serial.
"""

from repro.cluster.config import ClusterConfig
from repro.cluster.cluster import Cluster, ClusterReport
from repro.cluster.lb import LB_POLICIES, make_lb
from repro.cluster.source import ConnectionBatch, make_batches

__all__ = [
    "Cluster",
    "ClusterConfig",
    "ClusterReport",
    "ConnectionBatch",
    "LB_POLICIES",
    "make_batches",
    "make_lb",
]
