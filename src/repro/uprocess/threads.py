"""Userspace threads (§5.2.2).

"Conceptually, a thread is just a collection of states (registers, stack,
thread-local storage, etc.) and a CPU core operating on these states."
VESSEL manages those states entirely in userspace: creating a thread
allocates a stack and TLS block from the owning uProcess's region and a
context structure tracked by the runtime; the kernel never learns these
threads exist.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional

from repro.uprocess.uproc import UProcess

_tid_counter = itertools.count(1)

DEFAULT_STACK_SIZE = 128 << 10
DEFAULT_TLS_SIZE = 4 << 10


class UThreadState(enum.Enum):
    RUNNABLE = "runnable"
    RUNNING = "running"
    PARKED = "parked"      #: parked itself via the call gate (§4.4)
    DEAD = "dead"


@dataclass
class ThreadContext:
    """The saved register state of a suspended thread.

    ``return_addr`` is the instruction the core jumps back to when the
    thread is resumed — after a preemption this is "Line 7 of Listing 1"
    (the point inside the call gate after the runtime call), see Figure 6.
    """

    rsp: int = 0
    pc: int = 0
    return_addr: int = 0
    #: scalar stand-in for the general-purpose register file; switch code
    #: saves/restores it and tests can detect lost updates
    regs_checksum: int = 0


class UThread:
    """One userspace thread of a uProcess."""

    def __init__(self, uproc: UProcess, name: str = "",
                 stack_size: int = DEFAULT_STACK_SIZE) -> None:
        if not uproc.alive:
            raise RuntimeError(f"uProcess {uproc.name} is terminated")
        self.tid = next(_tid_counter)
        self.uproc = uproc
        self.name = name or f"{uproc.name}/t{self.tid}"
        self.stack_base = uproc.static_arena.alloc(stack_size)
        self.stack_size = stack_size
        self.tls = uproc.static_arena.alloc(DEFAULT_TLS_SIZE)
        self.context = ThreadContext(
            rsp=self.stack_base + stack_size,  # stacks grow down
            pc=uproc.slot.text_region.start if uproc.slot.text_region else 0,
        )
        self.state = UThreadState.RUNNABLE
        #: core currently running this thread, if any
        self.core_id: Optional[int] = None
        #: opaque scheduler payload (pending request, batch work, ...)
        self.payload = None
        #: fault-injection flag: a rogue thread never acts on preemption
        #: commands (it runs with user interrupts masked, §4.3's
        #: non-cooperative case) and must be evicted via the kernel path
        self.rogue = False
        uproc.threads.append(self)
        # Thread lifecycle ops are counted in the domain-wide ledger
        # (reachable through the SMAS's syscall layer); creation costs no
        # modeled nanoseconds because the kernel never participates.
        uproc.smas.syscalls.ledger.count_op("uthread_create", domain="uproc")

    @property
    def gone(self) -> bool:
        """Destroyed, or its uProcess was torn down: never install it."""
        return self.state is UThreadState.DEAD or not self.uproc.alive

    def destroy(self) -> None:
        """Release the stack and TLS back to the arena."""
        if self.state is not UThreadState.DEAD:
            self.state = UThreadState.DEAD
            self.uproc.smas.syscalls.ledger.count_op("uthread_destroy",
                                                     domain="uproc")
        if self.uproc.static_arena.owns(self.stack_base):
            self.uproc.static_arena.free(self.stack_base)
        if self.uproc.static_arena.owns(self.tls):
            self.uproc.static_arena.free(self.tls)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<UThread {self.name} {self.state.value} core={self.core_id}>"
