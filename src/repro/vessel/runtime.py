"""The VESSEL runtime: privileged operations behind the call gate.

§5.2.4: when uProcesses run inside arbitrary kProcesses, letting them
issue kernel syscalls directly is both insecure (descriptor brute-forcing
across uProcesses sharing a kProcess) and incorrect (descriptors vanish
when a uProcess migrates to another kProcess).  The runtime therefore
intercepts all syscalls, executes them through the kernel itself, and
keeps a per-uProcess descriptor map used for access control.

§4.2 defense 1 also lives here: any memory-configuration syscall that
would make pages executable is prohibited; on-demand code loading must go
through the runtime's inspected dlopen path.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.hardware.mpk import Permission
from repro.kernel.fdtable import FileDescription
from repro.kernel.kprocess import KProcess
from repro.kernel.syscalls import SyscallLayer
from repro.uprocess.domain import SchedulingDomain
from repro.uprocess.loader import ProgramImage
from repro.uprocess.threads import UThread
from repro.uprocess.uproc import UProcess


class SyscallDenied(PermissionError):
    """The runtime's syscall proxy refused the operation."""


class VesselRuntime:
    """Privileged services registered into the call gate's vector."""

    def __init__(self, domain: SchedulingDomain,
                 syscalls: Optional[SyscallLayer] = None) -> None:
        self.domain = domain
        self.syscalls = syscalls or domain.syscalls
        self.ledger = domain.ledger
        #: the kProcess the runtime issues kernel calls through
        self.kprocess = KProcess("vessel-runtime")
        self.proxied_syscalls = 0
        self.denied_syscalls = 0
        #: uProcess -> {ufd: kernel fd} — the runtime must remember which
        #: kernel descriptors back each uProcess's map so close (and
        #: crash teardown) releases them kernel-side, not just in the map
        self._kernel_fds: Dict[UProcess, Dict[int, int]] = {}
        domain.runtime = self
        gate = domain.gate
        gate.register_privileged("park", self._noop_park)
        gate.register_privileged("open", self.sys_open)
        gate.register_privileged("close", self.sys_close)
        gate.register_privileged("read", self.sys_read)
        gate.register_privileged("mmap", self.sys_mmap)
        gate.register_privileged("dlopen", self.sys_dlopen)
        gate.register_privileged("pthread_create", self.pthread_create)

    # ------------------------------------------------------------------
    def _count_proxy(self, name: str) -> None:
        """One proxied syscall: counted here, trap cost charged by the
        kernel syscall layer when the runtime actually issues it."""
        self.proxied_syscalls += 1
        if self.ledger.enabled:
            self.ledger.count_op(f"proxy:{name}", domain="vessel")

    def _count_denied(self, name: str) -> None:
        self.denied_syscalls += 1
        if self.ledger.enabled:
            self.ledger.count_op(f"deny:{name}", domain="vessel")

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def _noop_park(self, *args: Any) -> str:
        """Placeholder park; the scheduler system overrides this entry."""
        return "parked"

    def pthread_create(self, uproc: UProcess, name: str = "") -> UThread:
        """Create a userspace thread (§5.2.2): stack + TLS + context."""
        if not uproc.alive:
            self._count_denied("pthread_create")
            raise SyscallDenied(f"{uproc.name} is terminated")
        return UThread(uproc, name)

    # ------------------------------------------------------------------
    # File syscalls with per-uProcess access control (§5.2.4)
    # ------------------------------------------------------------------
    def sys_open(self, uproc: UProcess, path: str) -> int:
        self._count_proxy("open")
        kfd = self.syscalls.open(self.kprocess, path, owner_label=uproc.name)
        description = self.kprocess.fdtable.lookup(kfd)
        ufd = uproc.install_fd(description)
        self._kernel_fds.setdefault(uproc, {})[ufd] = kfd
        return ufd

    def sys_close(self, uproc: UProcess, ufd: int) -> None:
        self._count_proxy("close")
        try:
            uproc.remove_fd(ufd)
        except KeyError as exc:
            self._count_denied("close")
            raise SyscallDenied(str(exc)) from exc
        kfd = self._kernel_fds.get(uproc, {}).pop(ufd, None)
        if kfd is not None:
            self.syscalls.close(self.kprocess, kfd)

    def release_uprocess(self, uproc: UProcess) -> int:
        """Close every kernel descriptor still backing ``uproc``'s map.

        Called by :meth:`SchedulingDomain.reap` during teardown; returns
        the number of descriptors closed.
        """
        fds = self._kernel_fds.pop(uproc, {})
        for kfd in fds.values():
            self.syscalls.close(self.kprocess, kfd)
        if fds and self.ledger.enabled:
            self.ledger.count_op("reclaim:kernel_fds", domain="vessel")
        return len(fds)

    def kernel_fd_counts(self) -> Dict[UProcess, int]:
        """Open proxied kernel descriptors per uProcess that holds any."""
        return {uproc: len(fds) for uproc, fds in self._kernel_fds.items()
                if fds}

    def sys_read(self, uproc: UProcess, ufd: int) -> FileDescription:
        """Dereference a descriptor; only the owner's map is consulted, so
        brute-forcing another uProcess's descriptors yields EBADF."""
        self._count_proxy("read")
        description = uproc.lookup_fd(ufd)
        if description is None:
            self._count_denied("read")
            raise SyscallDenied(f"EBADF: ufd {ufd} not owned by {uproc.name}")
        return description

    # ------------------------------------------------------------------
    # Memory syscalls (§4.2 defense 1)
    # ------------------------------------------------------------------
    def sys_mmap(self, uproc: UProcess, size: int,
                 perms: Permission = Permission.rw()) -> int:
        """Anonymous mappings come from the uProcess heap; executable
        mappings are categorically denied."""
        self._count_proxy("mmap")
        if perms & Permission.EXECUTE:
            self._count_denied("mmap")
            raise SyscallDenied(
                "mmap(PROT_EXEC) is prohibited; use dlopen through the "
                "runtime (§4.2)"
            )
        return uproc.heap.alloc(size)

    def sys_dlopen(self, uproc: UProcess, library: ProgramImage):
        """The only way to introduce new executable code: inspected first."""
        from repro.uprocess.loader import LoaderError
        self._count_proxy("dlopen")
        try:
            return self.domain.loader.dlopen(uproc, library)
        except LoaderError:
            self._count_denied("dlopen")
            raise
