"""Fixed-tick gauge sampling for system-state time series.

The flight recorder (``repro.obs.flight``) explains *one request's*
latency; the :class:`GaugeSeries` explains the *system state it flew
through*: queue depths, busy cores, the autoscaler's BE-core cap,
requests in flight on the fabric, and the shed rate, all sampled on one
deterministic tick so a Perfetto counter track lines up with the request
spans.

Probes are zero-argument callables registered by the experiment harness
(:func:`repro.experiments.common.run_colocation`); they must be pure
reads — sampling adds simulator events but never changes component
state, so runs differ from unsampled ones only by the tick events
themselves.  The series is only constructed when flight recording is on,
keeping default runs byte-identical.

:class:`QueueTracker` is the separate, report-side sampler behind
``run_colocation(track_queues=True)``: peak and final L-app queue depth.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.sim.engine import RunComponent


class GaugeSeries(RunComponent):
    """Samples named gauges every ``tick_ns`` of simulated time."""

    def __init__(self, sim, tick_ns: int = 50_000,
                 max_samples: int = 100_000) -> None:
        if tick_ns <= 0:
            raise ValueError(f"tick_ns must be positive: {tick_ns}")
        self.sim = sim
        self.tick_ns = tick_ns
        self.max_samples = max_samples
        self._probes: List[Tuple[str, Callable[[], float]]] = []
        #: name -> [(ts_ns, value), ...]
        self.samples: Dict[str, List[Tuple[int, float]]] = {}
        self.samples_dropped = 0
        self._started = False

    def add_probe(self, name: str, probe: Callable[[], float]) -> None:
        if any(existing == name for existing, _ in self._probes):
            raise ValueError(f"duplicate gauge {name!r}")
        self._probes.append((name, probe))
        self.samples[name] = []

    def start(self) -> None:
        """Begin ticking (call once, after all probes are registered)."""
        if self._started:
            return
        self._started = True
        self.sim.post(self.tick_ns, self._tick)

    def _tick(self) -> None:
        now = self.sim.now
        for name, probe in self._probes:
            series = self.samples[name]
            if len(series) < self.max_samples:
                series.append((now, float(probe())))
            else:
                self.samples_dropped += 1
        self.sim.post(self.tick_ns, self._tick)

    # ------------------------------------------------------------------
    def begin_measurement(self) -> None:
        """Drop warmup-phase samples (the tick keeps running)."""
        for series in self.samples.values():
            series.clear()
        self.samples_dropped = 0

    def chrome_events(self, pid: int) -> List[Dict[str, Any]]:
        """Chrome ``trace_event`` counter ("C") rows, one track per gauge."""
        events: List[Dict[str, Any]] = [
            {"ph": "M", "pid": pid, "name": "process_name",
             "args": {"name": "gauges"}},
        ]
        for name, _ in self._probes:
            for ts, value in self.samples[name]:
                events.append({
                    "name": name, "ph": "C", "pid": pid,
                    "ts": ts / 1000.0, "args": {"value": value},
                })
        return events


class QueueTracker(RunComponent):
    """Peak and final L-app queue depth over the measured window.

    The graceful-degradation signal of the overload experiments
    (``SystemReport.queue_peak`` / ``queue_final``): queues sampled every
    ``tick_ns`` from ``from_ns`` on, with no other effect on the run.
    """

    def __init__(self, sim, system, from_ns: int,
                 tick_ns: int = 50_000) -> None:
        self.sim = sim
        self.system = system
        self.from_ns = from_ns
        self.tick_ns = tick_ns
        self.peaks: Dict[str, int] = {}

    def start(self) -> None:
        self.sim.at(self.from_ns, self._sample)

    def _sample(self) -> None:
        for app in self.system.apps:
            if app.is_latency and \
                    len(app.queue) > self.peaks.get(app.name, 0):
                self.peaks[app.name] = len(app.queue)
        self.sim.post(self.tick_ns, self._sample)

    def contribute(self, report) -> None:
        report.queue_peak = dict(sorted(self.peaks.items()))
        report.queue_final = {app.name: len(app.queue)
                              for app in self.system.apps
                              if app.is_latency}
