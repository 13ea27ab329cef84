"""A set-associative LRU cache fed by explicit address streams.

Figure 11 of the paper shows that two applications timesharing a core are
far more cache-friendly under VESSEL than under Caladan: with a shared
address space (SMAS) the allocator places the two apps' working sets in
*disjoint* address ranges, so they occupy disjoint cache sets; with
separate kProcesses both apps' heaps start at the same virtual addresses
and collide in the virtually-indexed parts of the hierarchy, thrashing
each other on every context switch.

The cache here is a plain set-associative LRU simulator; experiments drive
it with sampled access streams generated from each app's working set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class CacheStats:
    """Hit/miss counts, optionally broken down by stream tag."""

    hits: int = 0
    misses: int = 0
    by_tag: Dict[str, List[int]] = field(default_factory=dict)

    def record(self, tag: str, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        entry = self.by_tag.setdefault(tag, [0, 0])
        entry[0 if hit else 1] += 1

    def miss_rate(self, tag: str = "") -> float:
        """Overall miss rate, or a single tag's when ``tag`` is given."""
        if tag:
            hits, misses = self.by_tag.get(tag, [0, 0])
        else:
            hits, misses = self.hits, self.misses
        total = hits + misses
        if total == 0:
            return 0.0
        return misses / total


class CacheSim:
    """Set-associative LRU cache over byte addresses."""

    def __init__(self, size_bytes: int, ways: int = 8, line_bytes: int = 64) -> None:
        if size_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        if size_bytes % (ways * line_bytes) != 0:
            raise ValueError(
                f"size {size_bytes} not divisible by ways*line "
                f"({ways}*{line_bytes})"
            )
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        # Each set is an MRU-ordered list of line tags.
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def access(self, addr: int, tag: str = "") -> bool:
        """Touch ``addr``; returns True on hit.

        One call models a full cache-line touch; callers iterate lines for
        bulk accesses.
        """
        line = addr // self.line_bytes
        index = line % self.num_sets
        line_tag = line // self.num_sets
        ways = self._sets[index]
        try:
            pos = ways.index(line_tag)
        except ValueError:
            pos = -1
        if pos >= 0:
            # MRU update.
            if pos != 0:
                ways.insert(0, ways.pop(pos))
            self.stats.record(tag, True)
            return True
        ways.insert(0, line_tag)
        if len(ways) > self.ways:
            ways.pop()
        self.stats.record(tag, False)
        return False

    def access_range(self, start: int, length: int, tag: str = "") -> int:
        """Touch every line in ``[start, start+length)``; returns misses."""
        if length <= 0:
            raise ValueError(f"length must be positive: {length}")
        misses = 0
        first = start // self.line_bytes
        last = (start + length - 1) // self.line_bytes
        for line in range(first, last + 1):
            if not self.access(line * self.line_bytes, tag):
                misses += 1
        return misses

    def flush(self) -> None:
        """Invalidate everything (models a full flush / address-space swap)."""
        for ways in self._sets:
            ways.clear()
