"""Plain Linux colocation under CFS (§6.1 comparator).

The L-app runs as a normal multi-threaded server at nice -19 using the
kernel network stack (so every request pays the softirq/epoll/syscall
path); the B-app runs at nice 19 (the paper says nice 20; the kernel
clamps to 19).  Scheduling is the real CFS model from
``repro.kernel.cfs``; the millisecond-scale reaction time it exhibits for
frequently-sleeping server threads is what produces the paper's >10 ms
P999 ("Linux CFS always grants cores to execute B-app ... because
Memcached's worker threads suspend CPU cores frequently").
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.hardware.machine import Core, Machine
from repro.kernel.cfs import CfsScheduler, CfsTask, Chunk
from repro.kernel.kprocess import KProcess, KThread, ThreadState
from repro.sched.base import ColocationSystem
from repro.workloads.base import App, Request

L_APP_NICE = -19
B_APP_NICE = 19
B_CHUNK_NS = 200_000


class _WorkerTask(CfsTask):
    """One L-app server thread: kernel-net chunk, then the service chunk.

    The thread serves one request at a time, so the service chunk's
    completion callback is one bound method reading ``_serving``.
    """

    def __init__(self, system: "LinuxCfsSystem", app: App) -> None:
        self.system = system
        self.app = app
        self._staged: Optional[Request] = None
        self._serving: Optional[Request] = None

    def next_chunk(self) -> Optional[Chunk]:
        if self._staged is not None:
            request = self._serving = self._staged
            self._staged = None
            return Chunk(self.system.begin_service(request),
                         self.app.category, self._complete)
        request = self.app.pop_request()
        if request is None:
            return None  # sleep on epoll
        self._staged = request
        # Kernel network stack + syscall surface per request.
        return Chunk(self.system.costs.kernel_net_ns, "kernel")

    def _complete(self) -> None:
        self.system.end_service(self._serving)


class _BatchTask(CfsTask):
    """A best-effort thread: an endless stream of compute chunks."""

    def __init__(self, app: App, chunk_ns: int = B_CHUNK_NS) -> None:
        self.app = app
        self.chunk_ns = chunk_ns

    def next_chunk(self) -> Optional[Chunk]:
        return Chunk(self.chunk_ns, self.app.category, self._done)

    def _done(self) -> None:
        self.app.useful_ns += self.chunk_ns


class LinuxCfsSystem(ColocationSystem):
    """The CFS baseline."""

    name = "linux-cfs"

    def __init__(self, sim: Simulator, machine: Machine, rngs: RngStreams,
                 worker_cores: Optional[List[Core]] = None) -> None:
        # CFS needs no dedicated scheduler core; by default use all cores.
        if worker_cores is None:
            worker_cores = machine.cores
        super().__init__(sim, machine, rngs, worker_cores)
        self.cfs = CfsScheduler(sim, self.worker_cores, self.costs,
                                ledger=self.ledger)
        self._processes: Dict[str, KProcess] = {}
        self._workers: Dict[str, List[KThread]] = {}
        self._wake_rr: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def add_app(self, app: App) -> None:
        super().add_app(app)
        nice = L_APP_NICE if app.is_latency else B_APP_NICE
        process = KProcess(app.name, nice=nice)
        self._processes[app.name] = process
        threads: List[KThread] = []
        for i in range(len(self.worker_cores)):
            thread = process.spawn_thread(f"{app.name}/w{i}")
            if app.is_latency:
                task = _WorkerTask(self, app)
            else:
                task = _BatchTask(app)
            self.cfs.register(thread, task)
            threads.append(thread)
        self._workers[app.name] = threads
        self._wake_rr[app.name] = 0

    def on_start(self) -> None:
        for app in self.batch_apps:
            for thread in self._workers[app.name]:
                self.cfs.wake(thread)

    # ------------------------------------------------------------------
    def on_arrival(self, app: App, request: Request) -> None:
        """The softirq path wakes one sleeping server thread, scanning
        round-robin from the one after the last thread it woke."""
        threads = self._workers[app.name]
        count = len(threads)
        start = self._wake_rr[app.name]
        for offset in range(count):
            index = (start + offset) % count
            thread = threads[index]
            if thread.state is ThreadState.SLEEPING:
                self._wake_rr[app.name] = (index + 1) % count
                self.cfs.wake(thread)
                return
        # All workers already runnable; the queue drains as they run.
