"""Figure 11: cache friendliness (§6.3.2).

Two single-threaded object-copy applications timeshare one core.  Under
VESSEL both live in one SMAS, so the manager's allocator places their
working sets in *disjoint* address ranges — they occupy disjoint cache
sets and survive each other's timeslices.  Under Caladan each app is a
separate kProcess: the same virtual working set maps to arbitrary
physical pages, so the two working sets alias pseudo-randomly in the
physically-indexed cache and evict each other.

Paper numbers: miss rate 4.6% -> ~0.0415%; VESSEL completion time 6-24%
lower.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.hardware.cache import CacheSim
from repro.workloads.objcopy import ObjCopyApp
from repro.experiments.common import ExperimentConfig, format_table

CACHE_BYTES = 2 << 20
CACHE_WAYS = 16
LINE_BYTES = 64
PAGE_BYTES = 4096
WS_BYTES = 832 << 10           # per-app working set (two fit in the cache)
OPS_PER_SLICE = 40             # ops between context switches
TOTAL_OPS = 60_000

PAPER_CALADAN_MISS = 0.046
PAPER_VESSEL_MISS = 0.000415


def _random_page_mapping(ws_base: int, ws_size: int, rng: random.Random,
                         phys_space: int = 1 << 34):
    """Per-page pseudo-random physical placement (separate kProcess)."""
    pages = ws_size // PAGE_BYTES
    mapping = {i: rng.randrange(phys_space // PAGE_BYTES)
               for i in range(pages)}

    def translate(addr: int) -> int:
        offset = addr - ws_base
        page, rest = divmod(offset, PAGE_BYTES)
        return mapping[page] * PAGE_BYTES + rest

    return translate


def _identity(addr: int) -> int:
    return addr


def _run_mode(mode: str, cfg: ExperimentConfig,
              rng: random.Random) -> Dict:
    cache = CacheSim(CACHE_BYTES, ways=CACHE_WAYS, line_bytes=LINE_BYTES)
    costs = cfg.costs
    if mode == "vessel":
        # One SMAS: the two uProcess regions are disjoint ranges.
        bases = [0x1000_0000, 0x1000_0000 + WS_BYTES]
        translate = [_identity, _identity]
        switch_ns = costs.vessel_park_switch_ns()
    else:
        # Two kProcesses: same virtual layout, random physical pages.
        bases = [0x1000_0000, 0x1000_0000]
        translate = [
            _random_page_mapping(0x1000_0000, WS_BYTES, rng),
            _random_page_mapping(0x1000_0000, WS_BYTES, rng),
        ]
        switch_ns = (costs.caladan_park_yield_ns
                     + costs.caladan_park_switch_ns)

    apps = [ObjCopyApp(f"{mode}-app{i}", bases[i], WS_BYTES)
            for i in range(2)]

    class _TranslatingCache:
        """Applies the app's address translation before the cache."""

        def __init__(self, index: int) -> None:
            self.index = index

        def access_range(self, start: int, length: int, tag: str) -> int:
            misses = 0
            first = start // LINE_BYTES
            last = (start + length - 1) // LINE_BYTES
            fn = translate[self.index]
            for line in range(first, last + 1):
                phys = fn(line * LINE_BYTES)
                if not cache.access(phys, tag):
                    misses += 1
            return misses

    views = [_TranslatingCache(0), _TranslatingCache(1)]

    def phase(ops: int) -> int:
        nonlocal current
        elapsed = 0
        done = 0
        while done < ops:
            for _ in range(OPS_PER_SLICE):
                duration, _misses = apps[current].run_op(views[current], rng)
                elapsed += duration
                done += 1
                if done >= ops:
                    break
            elapsed += switch_ns
            current = 1 - current
        return elapsed

    current = 0
    # Warmup: fill the cache so cold (compulsory) misses don't pollute
    # the steady-state miss rate the paper reports.
    phase(TOTAL_OPS // 2)
    cache.stats.hits = 0
    cache.stats.misses = 0
    cache.stats.by_tag.clear()
    elapsed_ns = phase(TOTAL_OPS)

    return {
        "miss_rate": cache.stats.miss_rate(),
        "completion_ms": elapsed_ns / 1e6,
        "mean_op_ns": elapsed_ns / TOTAL_OPS,
    }


def run(cfg: Optional[ExperimentConfig] = None) -> Dict:
    cfg = cfg or ExperimentConfig()
    rng = random.Random(cfg.seed)
    vessel = _run_mode("vessel", cfg, rng)
    caladan = _run_mode("caladan", cfg, rng)
    return {
        "vessel": vessel,
        "caladan": caladan,
        "completion_reduction": 1.0 - (vessel["completion_ms"]
                                       / caladan["completion_ms"]),
        "paper": {"caladan_miss": PAPER_CALADAN_MISS,
                  "vessel_miss": PAPER_VESSEL_MISS,
                  "completion_reduction": "6-24%"},
    }


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    results = run(cfg)
    rows = [
        ["vessel", f"{results['vessel']['miss_rate']:.4%}",
         round(results["vessel"]["completion_ms"], 2)],
        ["  (paper)", f"{PAPER_VESSEL_MISS:.4%}", "-"],
        ["caladan", f"{results['caladan']['miss_rate']:.4%}",
         round(results["caladan"]["completion_ms"], 2)],
        ["  (paper)", f"{PAPER_CALADAN_MISS:.2%}", "-"],
    ]
    print("Figure 11: cache friendliness (two objcopy apps, one core)")
    print(format_table(["system", "miss rate", "completion ms"], rows))
    print(f"completion time reduction: "
          f"{results['completion_reduction']:.1%} (paper: 6-24%)")
    return results
