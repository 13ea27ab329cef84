"""The owned-core shape Caladan and Arachne share.

A worker core belongs to one application at a time (``owner``).  After a
grant's kernel transition, :meth:`OwnedCoreSystem._begin` starts the
owner's work: an L-app core serves requests until its system's own
``_serve`` decides otherwise (Caladan spins then parks, Arachne blocks
on a futex), a B-app core runs batch chunks back to back until its
system takes the core away through ``evict``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.hardware.machine import Core, Machine
from repro.sched.base import ColocationSystem, CoreState
from repro.workloads.base import App, Request


class OwnedCoreState(CoreState):
    """A worker core and the application that owns it (None: unowned)."""

    __slots__ = ("owner",)

    def __init__(self, core: Core) -> None:
        super().__init__(core)
        self.owner: Optional[App] = None


class OwnedCoreSystem(ColocationSystem):
    """Base for the systems whose cores are owned by one app at a time."""

    def __init__(self, sim: Simulator, machine: Machine, rngs: RngStreams,
                 worker_cores: Optional[List[Core]] = None) -> None:
        super().__init__(sim, machine, rngs, worker_cores)
        self._cores: Dict[int, OwnedCoreState] = {
            core.id: OwnedCoreState(core) for core in self.worker_cores
        }

    def _begin(self, state: OwnedCoreState) -> None:
        """A granted core starts its owner's work."""
        app = state.owner
        if app is None:
            state.kind = None
            state.core.set_idle()
            return
        if app.is_latency:
            self._serve(state)
        else:
            state.kind = "B"
            self._run_batch_chunk(state)

    def _serve(self, state: OwnedCoreState) -> None:
        """Serve the owner's next request, or do what the system does
        when its queue is empty."""
        raise NotImplementedError

    def _request_done(self, state: OwnedCoreState, request: Request) -> None:
        state.request = None
        self.end_service(request)
        self._serve(state)

    # ------------------------------------------------------------------
    # Best-effort chunks
    # ------------------------------------------------------------------
    def _run_batch_chunk(self, state: OwnedCoreState) -> None:
        app = state.owner
        state.batch_run = app.batch_work.start(
            state.core, self._batch_chunk_done, state)

    def _batch_chunk_done(self, state: OwnedCoreState) -> None:
        state.batch_run = None
        if state.kind != "B":
            return
        self._run_batch_chunk(state)
