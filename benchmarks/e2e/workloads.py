"""The benchmark's four workloads, built only from public entry points.

Every workload is open-loop traffic in simulated time (Poisson arrivals,
bursty for ``wide-bursty``), so the load generator is never late and each
latency is measured from the request's scheduled arrival.  Run lengths are
sized so one untraced run costs 2-2.5 s of host CPU on a 2-core x86-64
container; a benchmark run covers :data:`INPUT_SETS` input sets instead of
lengthening one, which averages out how much work a seed happens to draw
(bursty traffic varies most).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional

#: L-app name every workload serves
APP = "mc"
#: input sets one benchmark seed expands into
INPUT_SETS = 4


def input_seed(seed: int, index: int) -> int:
    """Simulation seed of input set ``index`` of benchmark seed ``seed``
    (distinct for every pair)."""
    return seed * INPUT_SETS + index


@dataclass(frozen=True)
class Workload:
    """One workload: its reason for existing and how to build it."""

    name: str
    why: str
    sim_ms: int
    warmup_ms: int
    #: latency is client-observed (through the simulated network) rather
    #: than server-side
    client_latency: bool
    build: Callable


@dataclass
class Inputs:
    """Everything ``run_colocation`` needs for one run."""

    system: str
    cfg: object
    kwargs: Dict


def _colo(system: str, seed: int, sim_ms: int, warmup_ms: int) -> Inputs:
    from repro.experiments.common import ExperimentConfig
    cfg = ExperimentConfig(seed=seed, sim_ms=sim_ms, warmup_ms=warmup_ms)
    return Inputs(system, cfg, dict(l_specs=[("memcached", APP, 2.0)],
                                    b_specs=("linpack",)))


def _wide_bursty(seed: int, sim_ms: int, warmup_ms: int) -> Inputs:
    from repro.experiments.common import ExperimentConfig, l_capacity_mops
    from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS
    cfg = ExperimentConfig(seed=seed, sim_ms=sim_ms, warmup_ms=warmup_ms,
                           num_workers=42, bursty=True)
    # fig12's heaviest VESSEL cell: 42 cores at 45% of capacity.
    rate = 0.45 * l_capacity_mops(cfg, MEMCACHED_MEAN_SERVICE_NS)
    return Inputs("vessel", cfg, dict(l_specs=[("memcached", APP, rate)],
                                      b_specs=("linpack",)))


def _overload_chaos(seed: int, sim_ms: int, warmup_ms: int) -> Inputs:
    from repro.experiments import flashcrowd
    from repro.experiments.common import ExperimentConfig, l_capacity_mops
    from repro.faults.plan import FaultPlan
    from repro.sim.units import MS, US
    from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS
    cfg = ExperimentConfig(
        seed=seed, sim_ms=sim_ms, warmup_ms=warmup_ms,
        net=flashcrowd.hardened_net(None), policy="autoscale",
        policy_params={"slo_p99_us": flashcrowd.SLO_P99_US},
        latency_breakdown=True)
    rate = flashcrowd.BASE_LOAD * l_capacity_mops(
        cfg, MEMCACHED_MEAN_SERVICE_NS)
    spike_ns = sim_ms * MS // 2
    plan = (FaultPlan(seed=seed)
            .drop_packets(0.02)
            .delay_packets(2 * US, probability=0.05, at_ns=spike_ns)
            .drop_uintr(0.05, at_ns=spike_ns))
    return Inputs("vessel", cfg, dict(
        l_specs=[("memcached", APP, rate)], b_specs=("linpack",),
        trace=flashcrowd.flash_crowd_trace(sim_ms, flashcrowd.SPIKE_FACTOR),
        admission=flashcrowd.admission_for(cfg), fault_plan=plan,
        track_queues=True))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("colo-vessel",
             "Fig. 9 colocation on VESSEL, direct submit: vessel, uprocess, "
             "hardware and sim do the work; net, overload and faults idle",
             sim_ms=30, warmup_ms=5, client_latency=False,
             build=partial(_colo, "vessel")),
    Workload("colo-caladan",
             "Same traffic on Caladan, the bypass twin: vessel and uprocess "
             "get no calls; most latency samples, so recording costs show",
             sim_ms=100, warmup_ms=5, client_latency=False,
             build=partial(_colo, "caladan")),
    Workload("wide-bursty",
             "42-worker VESSEL under bursty 18.9 Mops (fig12's heaviest "
             "cell): many-core scans load sched, vessel and the event heap",
             sim_ms=6, warmup_ms=2, client_latency=False,
             build=_wide_bursty),
    Workload("overload-chaos",
             "Flash crowd with admission, autoscaler, packet and Uintr "
             "faults over the net: the only workload where net, overload, "
             "faults and obs work",
             sim_ms=10, warmup_ms=3, client_latency=True,
             build=_overload_chaos),
)}


def build(name: str, seed: int, sim_ms: Optional[int] = None) -> Inputs:
    """Inputs of workload ``name`` for ``seed``; ``sim_ms`` shrinks the run
    (the warm-up shrinks with it) for tests."""
    workload = WORKLOADS[name]
    if sim_ms is None:
        return workload.build(seed, workload.sim_ms, workload.warmup_ms)
    return workload.build(seed, sim_ms, min(workload.warmup_ms, sim_ms // 2))
