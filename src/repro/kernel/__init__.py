"""Simulated Linux-kernel substrate.

The uProcess design deliberately *avoids* the kernel, but both its setup
path (mmap/pkey_alloc/pkey_mprotect/fork) and every
baseline system (Caladan's IPI+SIGUSR reallocation pipeline, Arachne's
core grants, plain CFS) go through it, so the substrate is modeled in
full:

``kprocess``
    Kernel processes and threads: isolated address-space maps, descriptor
    tables, nice values.
``syscalls``
    The syscall layer with per-call trap costs: mmap / pkey_alloc /
    pkey_mprotect / fork / sched_setaffinity / ioctl / open / close /
    read.
``signals``
    POSIX-signal posting and delivery to registered userspace handlers.
``cfs``
    The Completely Fair Scheduler: weights from the kernel's nice-to-weight
    table, per-core runqueues ordered by vruntime, tick-driven timeslices,
    sleeper credit, and wakeup preemption.
``kschedule``
    The kernel-mediated core-reallocation pipeline of Figure 3
    (ioctl -> IPI -> trap -> SIGUSR save -> kernel switch -> restore).
"""

from repro.kernel.kprocess import KProcess, KThread, ThreadState
from repro.kernel.fdtable import FdTable, FileDescription
from repro.kernel.syscalls import SyscallLayer, SyscallError
from repro.kernel.signals import KernelSignals, Signal
from repro.kernel.cfs import CfsScheduler, CfsParams, nice_to_weight
from repro.kernel.kschedule import KernelReallocPipeline, ReallocPhase

__all__ = [
    "KProcess",
    "KThread",
    "ThreadState",
    "FdTable",
    "FileDescription",
    "SyscallLayer",
    "SyscallError",
    "KernelSignals",
    "Signal",
    "CfsScheduler",
    "CfsParams",
    "nice_to_weight",
    "KernelReallocPipeline",
    "ReallocPhase",
]
