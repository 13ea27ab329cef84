"""Observability: op ledger, log histograms, flights, gauges, and the
one Chrome trace export over them."""

import json
from typing import Sequence

from repro.obs.hist import LogHistogram
from repro.obs.ledger import NULL_LEDGER, NullLedger, OpLedger
from repro.obs.flight import (NULL_FLIGHT, FlightRecorder,
                              NullFlightRecorder)
from repro.obs.timeseries import GaugeSeries

__all__ = ["OpLedger", "NullLedger", "NULL_LEDGER", "LogHistogram",
           "FlightRecorder", "NullFlightRecorder", "NULL_FLIGHT",
           "GaugeSeries", "write_chrome_trace"]


def write_chrome_trace(path: str, recorders: Sequence) -> None:
    """Write one Chrome ``trace_event`` JSON file of ``recorders``.

    Each recorder (a :class:`~repro.sim.trace.Tracer`, an
    :class:`OpLedger`, a :class:`FlightRecorder`, a
    :class:`GaugeSeries`) contributes its ``chrome_events(pid)`` under
    its position in the sequence as pid, so one Perfetto timeline
    correlates cores, ops, request decompositions and system gauges.
    """
    events = []
    for pid, recorder in enumerate(recorders):
        events.extend(recorder.chrome_events(pid))
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, handle)
