"""Fold a cProfile run's self time into the simulator's layers.

A layer is a package of ``src/repro``.  Functions defined in a layer's
files are charged to it.  Everything else a run executes -- C builtins,
the stdlib (``heapq``, ``random``, ``collections``), numpy -- is charged to
the layers that called it, in proportion to the self time ``pstats``
records per caller, following callers up through other non-``repro``
functions.  A ``repro`` package missing from the map raises
:class:`UnmappedModule`, so a new package cannot fall silently into
"unattributed".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

#: the layers the benchmark reports, lowest first
LAYERS = ("sim", "hardware", "kernel", "uprocess", "vessel", "baselines",
          "sched", "workloads", "net", "obs", "overload", "faults",
          "experiments")
#: packages no workload reaches; folded like the others, never reported
UNREACHED = ("cluster", "perf")

#: (file relative to src/repro, function) of the boundaries the benchmark
#: reports cumulative times or call counts for
SIM_RUN = ("sim/engine.py", "run")
RUN_COLOCATION = ("experiments/common.py", "run_colocation")
SUMMARIZE = ("sim/stats.py", "summarize_ns")
HIST_BUILD = ("obs/hist.py", "from_samples")
STATS_RECORD = ("sim/stats.py", "record")
BEGIN_SERVICE = ("sched/base.py", "begin_service")

Func = Tuple[str, int, str]


class UnmappedModule(ValueError):
    """A profiled function lives in a ``repro`` package with no layer."""


@dataclass
class Fold:
    """Self time and primitive calls per layer, plus boundary counters."""

    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)
    #: self time no repro caller could be found for
    unattributed_s: float = 0.0
    #: cumulative seconds and call counts keyed by boundary
    cum_s: Dict[Tuple[str, str], float] = field(default_factory=dict)
    ncalls: Dict[Tuple[str, str], int] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values()) + self.unattributed_s

    def share(self, layer: str) -> float:
        total = self.total_s
        return self.self_s.get(layer, 0.0) / total if total else 0.0


def layer_of(filename: str, repro_dir: str) -> Optional[str]:
    """Layer of a function defined in ``filename``, or None when the file
    is not part of ``repro``."""
    rel = os.path.relpath(os.path.abspath(filename), repro_dir)
    if rel.startswith(os.pardir) or os.path.isabs(rel):
        return None
    parts = rel.split(os.sep)
    if len(parts) == 1:
        # Top-level modules (the package docstring, the CLI dispatcher)
        # assemble runs like the experiments package does.
        return "experiments"
    if parts[0] in LAYERS or parts[0] in UNREACHED:
        return parts[0]
    raise UnmappedModule(f"{filename}: repro package {parts[0]!r} maps to "
                         f"no layer; add it to LAYERS or UNREACHED")


def fold(stats: Dict, repro_dir: str) -> Fold:
    """Fold ``pstats.Stats(...).stats`` into layers.

    ``repro_dir`` is the directory of the profiled ``repro`` package.
    """
    repro_dir = os.path.abspath(repro_dir)
    owner: Dict[Func, Optional[str]] = {}
    by_file: Dict[str, Optional[str]] = {}
    for func in stats:
        filename = func[0]
        if filename not in by_file:
            by_file[filename] = layer_of(filename, repro_dir)
        owner[func] = by_file[filename]

    memo: Dict[Func, Dict[str, float]] = {}

    def spread(func: Func, active: FrozenSet[Func]) -> Dict[str, float]:
        """Weights (summing to 1, or empty when no caller leads into
        ``repro``) of the layers ``func``'s self time is charged to."""
        if owner.get(func) is not None:
            return {owner[func]: 1.0}
        if func in memo:
            return memo[func]
        if func in active or func not in stats:
            return {}
        callers = stats[func][4]
        # A caller column of zeros (too fast for the timer) falls back to
        # call counts.
        column = 2 if any(entry[2] for entry in callers.values()) else 1
        weights: Dict[str, float] = {}
        resolved = 0
        for caller, entry in callers.items():
            caller_weights = spread(caller, active | {func})
            if not entry[column] or not caller_weights:
                # Recursive edges and callers outside the profile are
                # left out; the remaining callers share the time.
                continue
            resolved += entry[column]
            for layer, share in caller_weights.items():
                weights[layer] = weights.get(layer, 0.0) \
                    + share * entry[column]
        weights = {layer: value / resolved for layer, value in weights.items()}
        memo[func] = weights
        return weights

    out = Fold()
    boundaries = (SIM_RUN, RUN_COLOCATION, SUMMARIZE, HIST_BUILD,
                  STATS_RECORD, BEGIN_SERVICE)
    for func, (prim, ncalls, tottime, cumtime, _) in stats.items():
        layer = owner[func]
        if layer is not None:
            out.calls[layer] = out.calls.get(layer, 0) + prim
            key = (os.path.relpath(os.path.abspath(func[0]),
                                   repro_dir).replace(os.sep, "/"), func[2])
            if key in boundaries:
                out.cum_s[key] = out.cum_s.get(key, 0.0) + cumtime
                out.ncalls[key] = out.ncalls.get(key, 0) + ncalls
        charged = 0.0
        for target, share in spread(func, frozenset()).items():
            out.self_s[target] = out.self_s.get(target, 0.0) \
                + tottime * share
            charged += share
        out.unattributed_s += tottime * max(0.0, 1.0 - charged)
    return out


def table(result: Fold) -> str:
    """The layer table: self seconds, share and calls, by share."""
    rows = sorted(LAYERS, key=lambda layer: (-result.share(layer), layer))
    lines = [f"{'layer':<12} {'self_s':>9} {'share':>7} {'calls':>11}"]
    for layer in rows:
        lines.append(f"{layer:<12} {result.self_s.get(layer, 0.0):>9.3f} "
                     f"{result.share(layer):>7.1%} "
                     f"{result.calls.get(layer, 0):>11,}")
    lines.append(f"{'(unattr.)':<12} {result.unattributed_s:>9.3f} "
                 f"{result.unattributed_s / (result.total_s or 1):>7.1%}")
    return "\n".join(lines)
