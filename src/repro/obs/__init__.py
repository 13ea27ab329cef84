"""Observability: op ledger, log histograms, flights, gauge series."""

from repro.obs.hist import LogHistogram
from repro.obs.ledger import NULL_LEDGER, NullLedger, OpLedger
from repro.obs.flight import (NULL_FLIGHT, FlightRecorder,
                              NullFlightRecorder)
from repro.obs.timeseries import GaugeSeries

__all__ = ["OpLedger", "NullLedger", "NULL_LEDGER", "LogHistogram",
           "FlightRecorder", "NullFlightRecorder", "NULL_FLIGHT",
           "GaugeSeries"]
