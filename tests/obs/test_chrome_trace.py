"""Merged Chrome trace export: core spans + ops + flights + gauges.

One Perfetto/Chrome timeline holds four processes: pid 0 core spans
(Tracer), pid 1 op charges (OpLedger events), pid 2 the flight
recorder's slowest-request stage spans, pid 3 gauge counter tracks.
``write_chrome_trace`` numbers the recorders it is given in order.
These tests pin the pid/tid mapping, the per-section event shapes, and
that the merged document survives a JSON round trip.
"""

import json

from repro.obs import write_chrome_trace
from repro.obs.flight import FlightRecorder
from repro.obs.ledger import OpLedger
from repro.obs.timeseries import GaugeSeries
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


class _App:
    name = "mc"


class _Req:
    def __init__(self):
        self.app = _App()
        self.flight = None
        self.net_token = None


def _build():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.record(0, 1_000, 2_000, "app:mc")
    tracer.record(1, 1_500, 3_000, "batch:linpack")
    ledger = OpLedger(sim=sim, capture_events=True)
    sim.at(1_200, lambda: ledger.charge("uintr_send", 40, core=0,
                                        domain="hw"))

    flight = FlightRecorder(sim, reservoir_k=2)
    request = _Req()
    sim.at(1_000, lambda: flight.mark(request, "submit"))
    sim.at(1_100, lambda: flight.mark(request, "run_start", core=0))
    sim.at(2_000, lambda: flight.mark(request, "complete"))
    sim.at(2_000, lambda: flight.finalize(request, "done"))

    gauges = GaugeSeries(sim, tick_ns=1_000)
    gauges.add_probe("busy_cores", lambda: 2)
    gauges.start()
    sim.run(until=3_000)
    return tracer, ledger, flight, gauges


def _export(tmp_path, recorders):
    path = tmp_path / "merged.json"
    write_chrome_trace(str(path), recorders)
    return json.loads(path.read_text())


def test_merged_trace_pid_mapping_and_shapes(tmp_path):
    doc = _export(tmp_path, _build())
    events = doc["traceEvents"]

    names = {(e["pid"], e.get("name")) for e in events if e["ph"] == "M"}
    assert (0, "process_name") in names
    assert (1, "process_name") in names
    assert (2, "process_name") in names
    assert (3, "process_name") in names

    spans = [e for e in events if e["ph"] == "X" and e["pid"] == 0]
    assert {e["tid"] for e in spans} == {0, 1}  # one lane per core
    assert {e["name"] for e in spans} == {"app:mc", "batch:linpack"}

    ops = [e for e in events if e["ph"] == "X" and e["pid"] == 1]
    assert ops[0]["name"] == "uintr_send"
    assert ops[0]["args"]["cost_ns"] == 40

    flights = [e for e in events if e["ph"] == "X" and e["pid"] == 2]
    assert [e["name"] for e in flights] == ["sched_queue", "service",
                                           "net_out"]
    service = flights[1]
    assert service["ts"] == 1.1 and service["dur"] == 0.9
    assert service["args"]["core"] == 0
    meta = [e for e in events if e["ph"] == "M" and e["pid"] == 2
            and e["name"] == "thread_name"]
    assert meta[0]["args"]["name"] == "mc 1.0us"

    counters = [e for e in events if e["ph"] == "C"]
    assert all(e["pid"] == 3 for e in counters)
    assert len(counters) == 3  # ticks at 1000/2000/3000 ns


def test_sections_are_ordered_and_spans_time_sorted(tmp_path):
    events = _export(tmp_path, _build())["traceEvents"]
    pids = [e["pid"] for e in events if e["ph"] != "M"]
    assert pids == sorted(pids)  # sections merge in pid order
    for pid in (0, 1, 3):
        ts = [e["ts"] for e in events
              if e["pid"] == pid and e["ph"] != "M"]
        assert ts == sorted(ts)


def test_merged_trace_round_trips_through_json(tmp_path):
    doc = _export(tmp_path, _build())
    assert doc["displayTimeUnit"] == "ns"
    assert {e["pid"] for e in doc["traceEvents"]} == {0, 1, 2, 3}
    for event in doc["traceEvents"]:
        assert event["ph"] in ("M", "X", "C")
        if event["ph"] == "X":
            assert event["dur"] >= 0


def test_sections_are_optional(tmp_path):
    tracer, ledger, flight, gauges = _build()
    doc = _export(tmp_path, (tracer, ledger))  # spans + ops only
    assert {e["pid"] for e in doc["traceEvents"]} <= {0, 1}
    doc = _export(tmp_path, (tracer, ledger, flight))
    assert 2 in {e["pid"] for e in doc["traceEvents"]}
    assert 3 not in {e["pid"] for e in doc["traceEvents"]}
