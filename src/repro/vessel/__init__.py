"""VESSEL: the userspace core scheduler built on uProcess (§5).

``runtime``
    The privileged runtime living behind the call gate: park/spawn
    primitives, the syscall proxy with per-uProcess descriptor access
    control (§5.2.4), and the mmap-executable interception (§4.2).
``scheduler``
    The one-level global core scheduler (§4.5) as a performance-layer
    system: per-core FIFO thread queues, a global best-effort queue,
    Uintr-driven preemption of best-effort work, and UMWAIT idling.
``containment``
    Fault containment (§4.3): the preemption watchdog and its kernel-IPI
    fallback, the scheduler heartbeat, crash and rogue-thread handling,
    and app teardown.
``regulation``
    Fine-grained memory-bandwidth regulation by core duty-cycling
    (Figure 13b).
"""

from repro.vessel.runtime import VesselRuntime, SyscallDenied
from repro.vessel.scheduler import VesselSystem
from repro.vessel.regulation import VesselBandwidthRegulator

__all__ = [
    "VesselRuntime",
    "SyscallDenied",
    "VesselSystem",
    "VesselBandwidthRegulator",
]
