"""The syscall layer.

Every kernel-mediated operation the reproduction needs goes through one
:class:`SyscallLayer` instance, which mutates the functional state
(address-space maps, fd tables, processes) and accounts the trap cost of
each call.  The performance-layer schedulers charge these costs to cores
explicitly; the functional tests only check semantics and the recorded
counts.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.hardware.mpk import (
    AddressSpaceMap,
    Permission,
    Region,
    PKEY_COUNT,
)
from repro.hardware.timing import CostModel
from repro.kernel.fdtable import FileDescription
from repro.kernel.kprocess import KProcess
from repro.obs.ledger import OpLedger


class SyscallError(OSError):
    """A syscall returned an error (message carries the errno name)."""


class SyscallLayer:
    """Executes syscalls against the functional state and accounts costs."""

    def __init__(self, costs: Optional[CostModel] = None,
                 ledger: Optional[OpLedger] = None) -> None:
        self.costs = costs or CostModel()
        #: standalone layers get a private ledger so ``counts`` keeps
        #: working; systems pass the machine-wide one in
        self.ledger = ledger if ledger is not None else OpLedger()
        self._pkeys: Dict[int, Set[int]] = {}  # id(aspace) -> allocated keys

    # ------------------------------------------------------------------
    @property
    def counts(self) -> Dict[str, int]:
        """Per-syscall invocation counts (a view over the ledger)."""
        return self.ledger.op_counts(domain="syscall")

    @property
    def total_ns(self) -> int:
        """Total trap nanoseconds charged by this layer."""
        return self.ledger.total_ns(domain="syscall")

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def mmap(self, aspace: AddressSpaceMap, start: int, size: int,
             perms: Permission, name: str = "") -> Region:
        self.ledger.charge("mmap", self.costs.syscall_ns, domain="syscall")
        if size <= 0:
            raise SyscallError(f"EINVAL: mmap size {size}")
        return aspace.map(Region(start=start, size=size, perms=perms,
                                 pkey=0, name=name))

    def pkey_alloc(self, aspace: AddressSpaceMap) -> int:
        """Allocate a protection key in ``aspace``; key 0 stays reserved."""
        self.ledger.charge("pkey_alloc", self.costs.pkey_syscall_ns, domain="syscall")
        allocated = self._pkeys.setdefault(id(aspace), set())
        for pkey in range(1, PKEY_COUNT):
            if pkey not in allocated:
                allocated.add(pkey)
                return pkey
        raise SyscallError("ENOSPC: no free protection keys")

    def pkey_mprotect(self, aspace: AddressSpaceMap, region: Region,
                      pkey: int) -> None:
        """Bind ``region`` to ``pkey`` (must be allocated in ``aspace``)."""
        self.ledger.charge("pkey_mprotect", self.costs.pkey_syscall_ns,
                           domain="syscall")
        allocated = self._pkeys.get(id(aspace), set())
        if pkey != 0 and pkey not in allocated:
            raise SyscallError(f"EINVAL: pkey {pkey} not allocated")
        aspace.set_pkey(region, pkey)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def fork(self, parent: KProcess, name: str = "") -> KProcess:
        """Clone ``parent``: copied address-space layout, shared-by-copy fds."""
        self.ledger.charge("fork", 20 * self.costs.syscall_ns, domain="syscall")
        child = KProcess(name or f"{parent.name}-child", nice=parent.nice,
                         parent=parent)
        for region in parent.aspace.regions():
            child.aspace.map(Region(start=region.start, size=region.size,
                                    perms=region.perms, pkey=region.pkey,
                                    name=region.name))
        for fd, description in parent.fdtable.open_fds().items():
            description.refcount += 1
            child.fdtable._table[fd] = description
        parent.children.append(child)
        return child

    def sched_setaffinity(self, proc: KProcess, core_id: int) -> None:
        self.ledger.charge("sched_setaffinity", self.costs.syscall_ns,
                           domain="syscall")
        proc.bound_core = core_id

    def ioctl(self, proc: KProcess, request: str) -> None:
        """Generic ioctl (Caladan's scheduler uses one to fire the IPI)."""
        self.ledger.charge(f"ioctl:{request}", self.costs.syscall_ns,
                           domain="syscall")

    # ------------------------------------------------------------------
    # Files
    # ------------------------------------------------------------------
    def open(self, proc: KProcess, path: str, owner_label: str = "") -> int:
        self.ledger.charge("open", self.costs.syscall_ns, domain="syscall")
        return proc.fdtable.install(
            FileDescription(path=path, owner_label=owner_label)
        )

    def close(self, proc: KProcess, fd: int) -> None:
        self.ledger.charge("close", self.costs.syscall_ns, domain="syscall")
        try:
            proc.fdtable.close(fd)
        except KeyError as exc:
            raise SyscallError(str(exc)) from exc

    def read_fd(self, proc: KProcess, fd: int) -> FileDescription:
        """Dereference a descriptor (stands in for read/write/fstat...)."""
        self.ledger.charge("read", self.costs.syscall_ns, domain="syscall")
        description = proc.fdtable.lookup(fd)
        if description is None:
            raise SyscallError(f"EBADF: fd {fd}")
        return description
