"""Deterministic discrete-event simulation kernel.

All simulated time is integer nanoseconds.  The engine provides cancellable
callback events (every simulated actor schedules its work through
``Simulator.at``/``after``/``post``), deterministic named RNG streams, and
the latency recorder and its exact summary used by every experiment in
the reproduction.
"""

from repro.sim.engine import Event, Simulator, SimulationError
from repro.sim.rng import RngStreams
from repro.sim.stats import LatencyRecorder, summarize_ns
from repro.sim.trace import Tracer, render_timeline
from repro.sim.units import NS, US, MS, SEC

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "RngStreams",
    "LatencyRecorder",
    "summarize_ns",
    "Tracer",
    "render_timeline",
    "NS",
    "US",
    "MS",
    "SEC",
]
