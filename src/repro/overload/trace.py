"""Trace-driven load shaping (diurnal curves, flash crowds).

A :class:`LoadTrace` is a piecewise-constant multiplier over the run:
at each phase boundary every attached generator's offered rate becomes
``base_rate * multiplier``.  Both direct :class:`OpenLoopSource`s and
the net fabric's client-machine workloads re-read their ``rate_mops``
on every arrival tick, so shaping is a pure rate rewrite — the arrival
RNG streams are untouched and a run with a flat trace (all multipliers
1.0) is byte-identical to an unshaped run.

Multipliers must be positive: a generator whose rate hits zero stops
ticking and would never observe a later phase.  Express a lull as a
small multiplier (0.05), not zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.sim.engine import RunComponent, Simulator
from repro.sim.units import MS


@dataclass(frozen=True)
class LoadPhase:
    """From ``at_ms`` onward, offered load = base rate × ``multiplier``."""

    at_ms: float
    multiplier: float


@dataclass(frozen=True)
class LoadTrace:
    """A piecewise-constant load curve (frozen, picklable)."""

    phases: Tuple[LoadPhase, ...]

    def __post_init__(self) -> None:
        last = -1.0
        for phase in self.phases:
            if phase.multiplier <= 0:
                raise ValueError(
                    f"multiplier must be positive, got {phase.multiplier} "
                    f"at {phase.at_ms} ms (a zero-rate source stops "
                    "ticking and never recovers)")
            if phase.at_ms <= last:
                raise ValueError("phases must have increasing at_ms")
            last = phase.at_ms

    @classmethod
    def from_rates(cls, base_rate: float, epoch_ms: float,
                   rates: Sequence[float],
                   floor: float = 1e-4) -> "LoadTrace":
        """A trace that replays an absolute per-epoch rate timeline.

        ``rates[e]`` is the offered rate (same unit as ``base_rate``)
        through epoch ``e`` of length ``epoch_ms``; the multiplier for
        each phase is ``rate / base_rate``, clamped to ``floor`` so a
        zero-rate epoch (a server the balancer assigned nothing) never
        stops the generator from observing later phases.  Consecutive
        equal multipliers collapse into one phase.  The cluster layer
        uses this to hand every server its balancer-assigned load
        curve (``repro.cluster``).
        """
        if base_rate <= 0:
            raise ValueError(f"base_rate must be positive: {base_rate}")
        phases: List[LoadPhase] = []
        last = None
        for epoch, rate in enumerate(rates):
            multiplier = max(floor, rate / base_rate)
            if last is None or multiplier != last:
                phases.append(LoadPhase(at_ms=epoch * epoch_ms,
                                        multiplier=multiplier))
                last = multiplier
        if not phases:
            phases.append(LoadPhase(at_ms=0.0, multiplier=1.0))
        return cls(phases=tuple(phases))


def flash_crowd_trace(sim_ms: float, spike_factor: float = 10.0) -> LoadTrace:
    """The scenario trace: a diurnal ramp with a ``spike_factor``× flash
    crowd through the middle of the run, then decay back to baseline.

    Shape (fractions of ``sim_ms``): calm morning at 0.6×, build to
    1.0×, the spike holds from 50% to 65% of the run, then an elevated
    tail (the crowd leaves slowly) and return to 0.8×.
    """
    t = sim_ms
    return LoadTrace(phases=(
        LoadPhase(at_ms=0.0, multiplier=0.6),
        LoadPhase(at_ms=0.20 * t, multiplier=0.8),
        LoadPhase(at_ms=0.35 * t, multiplier=1.0),
        LoadPhase(at_ms=0.50 * t, multiplier=spike_factor),
        LoadPhase(at_ms=0.65 * t, multiplier=1.2),
        LoadPhase(at_ms=0.80 * t, multiplier=0.8),
    ))


class LoadShaper(RunComponent):
    """Applies a :class:`LoadTrace` to attached load generators."""

    def __init__(self, sim: Simulator, trace: LoadTrace) -> None:
        self.sim = sim
        self.trace = trace
        #: (object with a mutable ``rate_mops``, its base rate)
        self._targets: List[Tuple[object, float]] = []
        self.applied = 0

    def attach_source(self, source) -> None:
        """Shape a direct-submit :class:`OpenLoopSource`."""
        self._targets.append((source, source.rate_mops))

    def attach_fabric(self, fabric) -> None:
        """Shape every client-machine workload on a net fabric."""
        for machine in fabric.machines:
            for workload in machine.workloads:
                self._targets.append((workload, workload.rate_mops))

    def start(self) -> None:
        for phase in self.trace.phases:
            self.sim.at(int(phase.at_ms * MS), self._apply, phase.multiplier)

    def _apply(self, multiplier: float) -> None:
        for target, base_rate in self._targets:
            target.rate_mops = base_rate * multiplier
        self.applied += 1
