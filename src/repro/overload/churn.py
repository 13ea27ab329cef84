"""Continuous tenant churn: uProcesses created and destroyed under load.

Multi-tenant clusters never reach steady state — tenants arrive, run
for a while, and leave, so the SMAS slot table, pkey assignments, boot
kProcesses, and kernel descriptors are allocated and reclaimed
continuously.  :class:`ChurnDriver` generates that turnover against a
*running* system: each churn lane boots a memcached tenant with its own
open-loop source, retires it after an exponentially distributed
lifetime, then (after a respawn gap) boots the next tenant into
whatever slot teardown freed.

Determinism: the driver owns dedicated RNG streams
(``overload/churn`` for lifetimes/gaps, per-tenant ``overload/svc/*``
and ``overload/arrivals/*`` for load), so enabling churn never perturbs
the long-lived apps' arrival or service draws — and slot allocation is
first-free, so reruns reuse identical slot indices in identical order.

When the domain is momentarily full (all SMAS slots in use), a spawn
defers and retries rather than crashing — capacity pressure is part of
what the scenario exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.sim.engine import RunComponent, Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS, US
from repro.uprocess.smas import MAX_UPROCESSES
from repro.workloads.base import OpenLoopSource
from repro.workloads.memcached import UsrServiceSampler, memcached_app
from repro.workloads.synthetic import exponential_ns

#: retry delay when the domain has no free slot for a spawn
_FULL_RETRY_NS = 20 * US


@dataclass(frozen=True)
class ChurnConfig:
    """Turnover knobs (frozen, picklable for batch sweeps)."""

    #: concurrent churn lanes (each lane = one live tenant at a time)
    tenants: int = 3
    #: mean tenant lifetime (exponential)
    lifetime_us: float = 600.0
    #: mean gap between a retirement and the lane's next spawn
    respawn_gap_us: float = 150.0
    #: offered load per churning tenant
    rate_mops: float = 0.25
    #: when the first lane starts spawning
    start_ms: float = 0.0


class ChurnDriver(RunComponent):
    """Spawns and retires tenants against a running system."""

    def __init__(self, sim: Simulator, system, rngs: RngStreams,
                 cfg: ChurnConfig) -> None:
        self.sim = sim
        self.system = system
        self.rngs = rngs
        self.cfg = cfg
        self.rng = rngs.stream("overload/churn")
        self.created = 0
        self.destroyed = 0
        self.deferred_full = 0
        self._seq = 0
        self._active: Dict[str, OpenLoopSource] = {}

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Stagger the lanes' first spawns across one respawn gap."""
        base_ns = int(self.cfg.start_ms * MS)
        stagger = max(1, int(self.cfg.respawn_gap_us * 1_000))
        for lane in range(self.cfg.tenants):
            self.sim.at(base_ns + lane * stagger // self.cfg.tenants,
                        self._spawn)

    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        if self.system.domain.smas.slots_in_use() >= MAX_UPROCESSES:
            self.deferred_full += 1
            self.sim.after(_FULL_RETRY_NS, self._spawn)
            return
        name = f"tenant{self._seq}"
        self._seq += 1
        app = memcached_app(name)
        self.system.add_app(app)
        sampler = UsrServiceSampler(self.rngs.stream(f"overload/svc/{name}"))
        source = OpenLoopSource(
            self.sim, app, self.system.submit, self.cfg.rate_mops, sampler,
            self.rngs.stream(f"overload/arrivals/{name}"),
            start_ns=self.sim.now)
        self._active[name] = source
        self.created += 1
        lifetime = exponential_ns(self.rng.random,
                                  1.0 / (self.cfg.lifetime_us * 1_000))
        self.sim.after(lifetime, self._retire, name)

    def _retire(self, name: str) -> None:
        source = self._active.pop(name, None)
        if source is None:
            return  # already torn down (e.g. a fault killed the tenant)
        source.stop()
        if self.system.has_app(name):
            self.system.remove_app(name)
        self.destroyed += 1
        gap = exponential_ns(self.rng.random,
                             1.0 / (self.cfg.respawn_gap_us * 1_000))
        self.sim.after(gap, self._spawn)

    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        return len(self._active)

    def snapshot(self) -> Dict:
        """Turnover + kernel-residue accounting for the report.

        The residue numbers are the point of the scenario: after
        thousands of create/destroy cycles they must equal what a
        freshly booted system of the same live population would show.
        """
        system = self.system
        children = system.manager.kprocess.children
        return {
            "created": self.created,
            "destroyed": self.destroyed,
            "active": self.active,
            "deferred_full": self.deferred_full,
            "slots_in_use": system.domain.smas.slots_in_use(),
            "domain_roster": len(system.domain.uprocs),
            "signal_handlers": system.signals.handler_count(),
            "live_children": sum(1 for c in children if c.alive),
            "dead_children": sum(1 for c in children if not c.alive),
            "kernel_fd_tables": len(system.runtime.kernel_fd_counts()),
        }

    def contribute(self, report) -> None:
        report.churn = self.snapshot()
