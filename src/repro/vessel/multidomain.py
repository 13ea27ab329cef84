"""Multiple scheduling domains (§4.1).

One SMAS supports at most 13 uProcesses (the 16 protection keys minus
key 0, the runtime key, and the message-pipe key).  "Multiple scheduling
domains can be used when the number of uProcesses exceeds this limit."

Cores cannot be timeshared *across* domains in userspace — a different
domain means a different SMAS, so moving a core between domains would be
a kernel-mediated address-space switch, exactly what uProcess exists to
avoid.  The multi-domain composition therefore *partitions* the worker
cores: each domain gets its own core subset, scheduler, and SMAS, and
applications are placed into domains at admission time.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.hardware.machine import Core, Machine
from repro.sched.base import SystemReport
from repro.uprocess.smas import MAX_UPROCESSES
from repro.vessel.scheduler import VesselSystem
from repro.workloads.base import App, Request


class MultiDomainVessel:
    """VESSEL spanning several scheduling domains.

    ``num_domains`` partitions the worker cores contiguously; apps are
    placed in the least-populated domain (or an explicit one).  The
    object quacks like a ColocationSystem for sources and reporting.
    """

    name = "vessel-multidomain"

    def __init__(self, sim: Simulator, machine: Machine, rngs: RngStreams,
                 num_domains: int,
                 worker_cores: Optional[List[Core]] = None) -> None:
        if num_domains <= 0:
            raise ValueError(f"num_domains must be positive: {num_domains}")
        workers = worker_cores if worker_cores is not None \
            else machine.cores[1:]
        if len(workers) < num_domains:
            raise ValueError(
                f"{num_domains} domains need at least that many workers "
                f"(got {len(workers)})"
            )
        self.sim = sim
        self.machine = machine
        self.systems: List[VesselSystem] = []
        share = len(workers) // num_domains
        extra = len(workers) % num_domains
        cursor = 0
        for index in range(num_domains):
            count = share + (1 if index < extra else 0)
            subset = workers[cursor:cursor + count]
            cursor += count
            system = VesselSystem(sim, machine, rngs.spawn(f"dom{index}"),
                                  worker_cores=subset)
            system.domain.name = f"vessel-domain-{index}"
            self.systems.append(system)
        self._placement: Dict[str, VesselSystem] = {}

    # ------------------------------------------------------------------
    @property
    def capacity_apps(self) -> int:
        return MAX_UPROCESSES * len(self.systems)

    def add_app(self, app: App,
                domain_index: Optional[int] = None) -> VesselSystem:
        """Admit an app into a domain; returns the hosting system."""
        if domain_index is not None:
            system = self.systems[domain_index]
        else:
            candidates = [s for s in self.systems
                          if s.domain.smas.slots_in_use() < MAX_UPROCESSES]
            if not candidates:
                raise RuntimeError(
                    f"all {len(self.systems)} domains are full "
                    f"({self.capacity_apps} uProcesses)"
                )
            system = min(candidates,
                         key=lambda s: s.domain.smas.slots_in_use())
        system.add_app(app)
        self._placement[app.name] = system
        return system

    def start(self) -> None:
        for system in self.systems:
            system.start()

    def submit(self, request: Request) -> None:
        self._placement[request.app.name].submit(request)

    # ------------------------------------------------------------------
    def begin_measurement(self) -> None:
        for system in self.systems:
            system.begin_measurement()

    def report(self) -> SystemReport:
        """Aggregate report across all domains."""
        parts = [system.report() for system in self.systems]
        merged = SystemReport(
            system=self.name,
            elapsed_ns=max(p.elapsed_ns for p in parts),
            num_worker_cores=sum(p.num_worker_cores for p in parts),
        )
        for part in parts:
            for key, value in part.buckets.items():
                merged.buckets[key] = merged.buckets.get(key, 0) + value
            merged.latency.update(part.latency)
            merged.completed.update(part.completed)
            for key, value in part.useful_ns.items():
                merged.useful_ns[key] = merged.useful_ns.get(key, 0) + value
        return merged
