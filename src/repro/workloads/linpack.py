"""Linpack: the CPU-bound best-effort application (§6.1).

A parallel floating-point benchmark; its "throughput" is simply how much
CPU time it harvests, so the work model is an endless supply of
fixed-size compute chunks whose executed nanoseconds accrue to
``app.useful_ns``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.hardware.machine import Core
from repro.workloads.base import App, AppKind

DEFAULT_CHUNK_NS = 100_000  # 100 µs of compute per chunk


class BatchRun:
    """Handle to an in-flight batch chunk; systems preempt through it."""

    def __init__(self, core: Core, work: "LinpackWork") -> None:
        self.core = core
        self.work = work
        self.started = core.sim.now
        self.active = True

    def preempt(self) -> None:
        """Stop the chunk now; partial progress still counts."""
        if not self.active:
            return
        self.active = False
        elapsed = self.core.sim.now - self.started
        self.core.preempt()
        self.work.app.useful_ns += max(0, elapsed)


class LinpackWork:
    """Endless compute chunks for one B-app."""

    def __init__(self, app: App, chunk_ns: int = DEFAULT_CHUNK_NS) -> None:
        if chunk_ns <= 0:
            raise ValueError(f"chunk must be positive: {chunk_ns}")
        self.app = app
        self.chunk_ns = chunk_ns

    def start(self, core: Core,
              on_done: Optional[Callable[..., None]] = None,
              *args: Any) -> BatchRun:
        """Run one chunk on ``core``; ``on_done(*args)`` fires if not
        preempted (a bound method plus its arguments, so a scheduler
        builds no closure per chunk)."""
        run = BatchRun(core, self)
        core.run(self.app.category, self.chunk_ns, self._chunk_done, run,
                 on_done, args)
        return run

    def _chunk_done(self, run: BatchRun,
                    on_done: Optional[Callable[..., None]],
                    args: tuple) -> None:
        run.active = False
        self.app.useful_ns += self.chunk_ns
        if on_done is not None:
            on_done(*args)


def linpack_app(name: str = "linpack",
                chunk_ns: int = DEFAULT_CHUNK_NS) -> App:
    app = App(name, AppKind.BATCH)
    app.batch_work = LinpackWork(app, chunk_ns)
    return app
