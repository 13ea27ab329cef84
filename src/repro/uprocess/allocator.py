"""Arena allocator for uProcess regions (§5.2.3).

glibc's malloc assumes it owns the process heap layout, which breaks when
thirteen applications' heaps live in one address space, so VESSEL preloads
jemalloc configured to draw from the uProcess region instead of mmap.
This module models that: a first-fit free-list allocator with size-class
rounding and coalescing-on-free over a fixed [base, base+size) range that
is already MPK-protected by the manager.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class OutOfMemoryError(MemoryError):
    """The arena cannot satisfy the request."""


#: jemalloc-style small size classes (bytes); larger requests round to pages
_SIZE_CLASSES = [
    16, 32, 48, 64, 80, 96, 112, 128,
    160, 192, 224, 256, 320, 384, 448, 512,
    640, 768, 896, 1024, 1280, 1536, 1792, 2048,
    2560, 3072, 3584, 4096,
]
_PAGE = 4096


def round_to_class(size: int) -> int:
    """Round a request to its allocation class (jemalloc-style)."""
    if size <= 0:
        raise ValueError(f"allocation size must be positive: {size}")
    for cls in _SIZE_CLASSES:
        if size <= cls:
            return cls
    return (size + _PAGE - 1) // _PAGE * _PAGE


class RegionAllocator:
    """First-fit allocator with address-ordered free list and coalescing."""

    def __init__(self, base: int, size: int, name: str = "") -> None:
        if size <= 0:
            raise ValueError(f"arena size must be positive: {size}")
        self.base = base
        self.size = size
        self.name = name
        #: address-ordered list of (start, size) free extents
        self._free: List[Tuple[int, int]] = [(base, size)]
        self._allocated: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def alloc(self, size: int, align: int = 16) -> int:
        """Allocate ``size`` bytes (rounded to a size class); returns addr."""
        if align <= 0 or align & (align - 1):
            raise ValueError(f"alignment must be a power of two: {align}")
        need = round_to_class(size)
        for index, (start, extent) in enumerate(self._free):
            addr = (start + align - 1) & ~(align - 1)
            waste = addr - start
            if extent >= waste + need:
                # Split the extent: [start,addr) stays free (if non-empty),
                # [addr, addr+need) is allocated, tail stays free.
                tail_start = addr + need
                tail_size = start + extent - tail_start
                replacement = []
                if waste:
                    replacement.append((start, waste))
                if tail_size:
                    replacement.append((tail_start, tail_size))
                self._free[index:index + 1] = replacement
                self._allocated[addr] = need
                return addr
        raise OutOfMemoryError(
            f"arena {self.name!r}: cannot allocate {need} bytes "
            f"({self.free_bytes()} free, fragmented)"
        )

    def free(self, addr: int) -> None:
        """Release a block; coalesces with free neighbours."""
        size = self._allocated.pop(addr, None)
        if size is None:
            raise ValueError(f"arena {self.name!r}: {addr:#x} is not allocated")
        # Insert in address order.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < addr:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (addr, size))
        self._coalesce_around(lo)

    def _coalesce_around(self, index: int) -> None:
        # Merge with successor first, then predecessor.
        if index + 1 < len(self._free):
            start, size = self._free[index]
            nstart, nsize = self._free[index + 1]
            if start + size == nstart:
                self._free[index:index + 2] = [(start, size + nsize)]
        if index > 0:
            pstart, psize = self._free[index - 1]
            start, size = self._free[index]
            if pstart + psize == start:
                self._free[index - 1:index + 1] = [(pstart, psize + size)]

    # ------------------------------------------------------------------
    def free_bytes(self) -> int:
        return sum(size for _, size in self._free)

    def owns(self, addr: int) -> bool:
        """Whether ``addr`` is the start of a live allocation."""
        return addr in self._allocated

    def check_invariants(self) -> None:
        """Free list is address-ordered, in-range, non-overlapping, and
        disjoint from allocations; total bytes are conserved."""
        prev_end = self.base - 1
        for start, size in self._free:
            if size <= 0:
                raise AssertionError(f"empty free extent at {start:#x}")
            if start <= prev_end:
                raise AssertionError(
                    f"free list unordered/overlapping near {start:#x}"
                )
            if start < self.base or start + size > self.base + self.size:
                raise AssertionError(f"free extent out of range at {start:#x}")
            prev_end = start + size
        spans = sorted(
            [(s, z, "free") for s, z in self._free]
            + [(s, z, "used") for s, z in self._allocated.items()]
        )
        prev_end = self.base
        total = 0
        for start, size, _ in spans:
            if start < prev_end:
                raise AssertionError(f"overlap at {start:#x}")
            prev_end = start + size
            total += size
        if total != self.size:
            raise AssertionError(
                f"bytes not conserved: {total} != {self.size}"
            )
