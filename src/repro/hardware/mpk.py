"""Memory protection keys (Intel MPK, §2.3).

The model works at region granularity rather than per-page-table-entry:
an :class:`AddressSpaceMap` holds non-overlapping :class:`Region` entries,
each tagged with page permissions and a protection key (0..15).  A memory
access is checked against *both* the page permission bits and the PKRU
value of the accessing core, exactly as the hardware does ("MPK is
supplementary to the existing page permission bits and both permissions
will be checked", §4.1).

PKRU semantics follow the SDM: 16 pairs of (AD, WD) bits.  AD=1 disables
all data access for the key; WD=1 disables writes.  Instruction fetches
are *not* subject to PKRU — this is the hardware property §4.1 relies on
to make executable-only text segments callable by every uProcess while
their data stays sealed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

PKEY_COUNT = 16


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    EXECUTE = "execute"


class Permission(enum.Flag):
    """Page-permission bits of a region (the PTE side of the check)."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXECUTE = enum.auto()

    @classmethod
    def rw(cls) -> "Permission":
        return cls.READ | cls.WRITE

    @classmethod
    def rx(cls) -> "Permission":
        return cls.READ | cls.EXECUTE

    @classmethod
    def exec_only(cls) -> "Permission":
        """Executable but neither readable nor writable (§4.1 text region)."""
        return cls.EXECUTE


class MpkFault(Exception):
    """An access denied by the PKRU value (protection-key fault)."""

    def __init__(self, addr: int, kind: AccessKind, pkey: int):
        super().__init__(f"pkey fault: {kind.value} at {addr:#x} (pkey {pkey})")
        self.addr = addr
        self.kind = kind
        self.pkey = pkey


class PageFault(Exception):
    """An access denied by page permissions, or to an unmapped address."""

    def __init__(self, addr: int, kind: AccessKind, reason: str):
        super().__init__(f"page fault: {kind.value} at {addr:#x} ({reason})")
        self.addr = addr
        self.kind = kind
        self.reason = reason


class PkruRegister:
    """The per-core PKRU register: (AD, WD) bit pairs for 16 keys."""

    __slots__ = ("value", "_ledger", "_core_id")

    #: all keys access-disabled except key 0 (the kernel leaves key 0 open
    #: so unmanaged memory keeps working, §4.1 footnote)
    ALL_DENIED_EXCEPT_0 = int("".join(["01"] * 15 + ["00"]), 2)

    def __init__(self, value: int = 0) -> None:
        if not 0 <= value < (1 << 32):
            raise ValueError(f"PKRU value out of range: {value:#x}")
        self.value = value
        self._ledger = None
        self._core_id = None

    def attach_ledger(self, ledger, core_id: int) -> None:
        """Count wrpkru/rdpkru executions on this (core) register.

        The instructions' nanoseconds are charged by the paths that
        execute them (the call-gate constants subsume the WRPKRU cost),
        so the register itself only records operation counts.
        """
        self._ledger = ledger if ledger is not None and ledger.enabled \
            else None
        self._core_id = core_id

    # -- raw instruction analogues ------------------------------------
    def wrpkru(self, value: int) -> None:
        if not 0 <= value < (1 << 32):
            raise ValueError(f"PKRU value out of range: {value:#x}")
        self.value = value
        if self._ledger is not None:
            self._ledger.count_op("wrpkru", core=self._core_id, domain="hw")

    def rdpkru(self) -> int:
        if self._ledger is not None:
            self._ledger.count_op("rdpkru", core=self._core_id, domain="hw")
        return self.value

    # -- structured helpers --------------------------------------------
    def allows(self, pkey: int, kind: AccessKind) -> bool:
        """Whether this PKRU permits ``kind`` on memory tagged ``pkey``.

        Instruction fetches are never blocked by PKRU (hardware behaviour).
        """
        if not 0 <= pkey < PKEY_COUNT:
            raise ValueError(f"pkey out of range: {pkey}")
        if kind is AccessKind.EXECUTE:
            return True
        shift = 2 * pkey
        access_disable = (self.value >> shift) & 1
        write_disable = (self.value >> (shift + 1)) & 1
        if access_disable:
            return False
        if kind is AccessKind.WRITE and write_disable:
            return False
        return True

    @classmethod
    def build(cls, readable: Dict[int, bool]) -> "PkruRegister":
        """Build a PKRU from ``{pkey: writable}``; unlisted keys are denied.

        Key 0 is always left fully open (see ALL_DENIED_EXCEPT_0).
        """
        value = 0
        for pkey in range(1, PKEY_COUNT):
            shift = 2 * pkey
            if pkey in readable:
                if not readable[pkey]:
                    value |= 1 << (shift + 1)  # WD
            else:
                value |= 1 << shift  # AD
        return cls(value)

    def copy(self) -> "PkruRegister":
        return PkruRegister(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PkruRegister) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PkruRegister({self.value:#010x})"


@dataclass
class Region:
    """A contiguous mapped range with page permissions and a pkey."""

    start: int
    size: int
    perms: Permission
    pkey: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"region {self.name!r} has size {self.size}")
        if not 0 <= self.pkey < PKEY_COUNT:
            raise ValueError(f"region {self.name!r} pkey {self.pkey} invalid")

    @property
    def end(self) -> int:
        return self.start + self.size

    def overlaps(self, other: "Region") -> bool:
        return self.start < other.end and other.start < self.end


class AddressSpaceMap:
    """Non-overlapping regions + the access check combining PTE and PKRU."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._regions: List[Region] = []

    # ------------------------------------------------------------------
    def map(self, region: Region) -> Region:
        """Insert a region; overlapping an existing mapping is an error."""
        for existing in self._regions:
            if existing.overlaps(region):
                raise ValueError(
                    f"region {region.name!r} [{region.start:#x},{region.end:#x}) "
                    f"overlaps {existing.name!r} "
                    f"[{existing.start:#x},{existing.end:#x})"
                )
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.start)
        return region

    def find(self, addr: int) -> Optional[Region]:
        """The region containing ``addr``, or None (binary search)."""
        lo, hi = 0, len(self._regions)
        while lo < hi:
            mid = (lo + hi) // 2
            region = self._regions[mid]
            if addr < region.start:
                hi = mid
            elif addr >= region.end:
                lo = mid + 1
            else:
                return region
        return None

    def regions(self) -> List[Region]:
        return list(self._regions)

    def set_pkey(self, region: Region, pkey: int) -> None:
        """The pkey_mprotect() analogue: re-tag a mapped region."""
        if region not in self._regions:
            raise ValueError(f"region {region.name!r} is not mapped")
        if not 0 <= pkey < PKEY_COUNT:
            raise ValueError(f"pkey out of range: {pkey}")
        region.pkey = pkey

    # ------------------------------------------------------------------
    def check_access(self, addr: int, kind: AccessKind, pkru: PkruRegister) -> Region:
        """Check one access; returns the region or raises a fault.

        Page permissions are checked first (an unmapped or non-X fetch is a
        page fault regardless of PKRU), then the protection key.
        """
        region = self.find(addr)
        if region is None:
            raise PageFault(addr, kind, "unmapped")
        needed = {
            AccessKind.READ: Permission.READ,
            AccessKind.WRITE: Permission.WRITE,
            AccessKind.EXECUTE: Permission.EXECUTE,
        }[kind]
        if not region.perms & needed:
            raise PageFault(addr, kind, f"page perms {region.perms}")
        if not pkru.allows(region.pkey, kind):
            raise MpkFault(addr, kind, region.pkey)
        return region
