"""Deterministic multiprocessing fan-out.

Every simulation in this repo is hermetic: it builds its own
:class:`~repro.sim.engine.Simulator`, draws from named RNG streams
seeded only by the config, and never touches global state.  That makes
experiment runs, sweep points, and seeds embarrassingly parallel — the
only requirement for determinism is that results (and any captured
stdout) are merged back in *task order*, never completion order, which
:func:`parallel_map` guarantees by using an ordered pool map.

Workers run one task at a time (``chunksize=1``) so a long task (a
fig09 sweep point at high load) does not serialize a whole chunk of
short ones behind it.

The fork start method is preferred: workers inherit the imported
modules and the warmed-up interpreter, so per-task overhead is a few
milliseconds.  On platforms without fork (Windows, macOS spawn default)
the spawn context is used transparently; tasks and results must be
picklable either way.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Iterable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context("spawn")


def parallel_map(fn: Callable[[T], R], items: Iterable[T],
                 jobs: int) -> List[R]:
    """``[fn(item) for item in items]`` fanned out over ``jobs`` processes.

    Results come back in item order regardless of completion order.
    ``jobs <= 1`` (or a single item, or an already-forked worker) runs
    in-process, so callers need no serial/parallel branching — and the
    in-process path is also what makes ``--jobs 1`` trivially
    byte-identical to ``--jobs N``.
    """
    tasks: Sequence[T] = list(items)
    if jobs <= 1 or len(tasks) <= 1 or _inside_worker():
        return [fn(task) for task in tasks]
    ctx = _pool_context()
    with ctx.Pool(processes=min(jobs, len(tasks))) as pool:
        return pool.map(fn, tasks, chunksize=1)


def _inside_worker() -> bool:
    """True inside a pool worker (daemonic processes cannot fork again)."""
    return multiprocessing.current_process().daemon
