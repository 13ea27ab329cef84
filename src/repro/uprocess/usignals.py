"""Command queues and signal handling (§4.3).

The scheduler never touches a victim core's state directly: it pushes a
:class:`Command` into the core's FIFO queue and sends a Uintr.  The
victim's registered handler passes through the call gate and executes the
command in privileged mode.

Kernel-initiated signals are proxied the same way.  The runtime registers
fault handlers before loading any uProcess; when, say, a segmentation
fault arrives, the handler identifies the faulty uProcess via
CPUID_TO_TASK_MAP and *broadcasts* a kill command to the queues of every
core running that uProcess — no Uintr needed, the commands are consumed
at each core's next privileged-mode entry.  This keeps one uProcess's
fault from killing the kProcess other uProcesses happen to be running in
(the "blast radius" barrier).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional


class CommandKind(enum.Enum):
    RUN_THREAD = "run_thread"      #: schedule this thread next
    PREEMPT = "preempt"            #: yield the core back to the scheduler
    KILL_UPROCESS = "kill_uprocess"


@dataclass
class Command:
    kind: CommandKind
    payload: Any = None


class CommandQueue:
    """Single-producer single-consumer FIFO between scheduler and a core.

    The real implementation is a lock-free ring; the model records depth
    statistics so tests can assert the protocol stays shallow.
    """

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        self._queue: Deque[Command] = deque()
        self.pushed = 0
        self.max_depth = 0

    def push(self, command: Command) -> None:
        self._queue.append(command)
        self.pushed += 1
        self.max_depth = max(self.max_depth, len(self._queue))

    def pop(self) -> Optional[Command]:
        if not self._queue:
            return None
        return self._queue.popleft()

    def drain(self) -> List[Command]:
        commands = list(self._queue)
        self._queue.clear()
        return commands

    def __len__(self) -> int:
        return len(self._queue)


class CommandQueues:
    """All per-core queues of one scheduling domain."""

    def __init__(self, core_ids: List[int]) -> None:
        self.queues: Dict[int, CommandQueue] = {
            core_id: CommandQueue(core_id) for core_id in core_ids
        }

    def of(self, core_id: int) -> CommandQueue:
        return self.queues[core_id]

    def broadcast_kill(self, uproc, running_core_ids: List[int]) -> int:
        """Queue KILL commands on every core running ``uproc`` (§4.3)."""
        for core_id in running_core_ids:
            self.queues[core_id].push(
                Command(CommandKind.KILL_UPROCESS, uproc)
            )
        return len(running_core_ids)

    def purge_uproc(self, uproc) -> int:
        """Drop every queued command addressed to ``uproc`` or its threads.

        Part of crash containment: once a uProcess is torn down, stale
        RUN_THREAD/PREEMPT commands must not resurrect its threads on a
        core.  Returns the number of commands dropped.
        """
        dropped = 0
        for queue in self.queues.values():
            kept = [
                command for command in queue._queue
                if not (command.payload is uproc
                        or getattr(command.payload, "uproc", None) is uproc)
            ]
            dropped += len(queue._queue) - len(kept)
            queue._queue = deque(kept)
        return dropped
