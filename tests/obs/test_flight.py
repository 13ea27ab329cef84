"""Flight recorder: stage derivation, invariant audit, system wiring."""

import heapq
from array import array

import pytest

from repro.obs.flight import (LEGAL_NEXT, NULL_FLIGHT, FlightRecorder,
                              NullFlightRecorder, STAGE_AFTER, STAGE_ORDER,
                              format_breakdown)


class _Sim:
    def __init__(self):
        self.now = 0


class _App:
    def __init__(self, name="a"):
        self.name = name


class _Req:
    def __init__(self, app, net_token=None):
        self.app = app
        self.flight = None
        self.net_token = net_token


def _recorder(**kwargs):
    return FlightRecorder(_Sim(), **kwargs)


def _fly(rec, req, *stops):
    """Stamp (label, ts[, core]) stops onto ``req``."""
    for stop in stops:
        label, ts = stop[0], stop[1]
        rec.sim.now = ts
        rec.mark(req, label, core=stop[2] if len(stop) > 2 else None)


# ----------------------------------------------------------------------
# Stage derivation and telescoping
# ----------------------------------------------------------------------
def test_stage_durations_telescope_to_total():
    rec = _recorder()
    req = _Req(_App("mc"), net_token=object())
    _fly(rec, req,
         ("client_send", 0), ("ingress", 500), ("admit", 600),
         ("submit", 600), ("run_start", 1_000, 2), ("complete", 2_000))
    rec.sim.now = 2_500
    rec.finalize(req, "done")
    assert req.flight is None
    assert rec.audit() == []
    summary = rec.stage_summaries()["mc"]
    assert summary["total_sum_ns"] == 2_500
    assert summary["stage_sum_ns"] == 2_500
    stages = summary["stages"]
    assert stages["net_in"]["sum_ns"] == 500
    assert stages["nic_ring"]["sum_ns"] == 100
    assert stages["sched_queue"]["sum_ns"] == 400  # admit->submit is 0
    assert stages["service"]["sum_ns"] == 1_000
    assert stages["net_out"]["sum_ns"] == 500
    assert rec.done_totals("mc") == array("q", [2_500])


def test_preempt_stages_split_the_service_time():
    rec = _recorder()
    req = _Req(_App("silo"))
    _fly(rec, req,
         ("submit", 0), ("run_start", 100, 0), ("preempt", 200, 0),
         ("run_start", 350, 1), ("preempt", 400, 1),
         ("run_start", 950, 0))
    rec.sim.now = 1_000
    rec.on_complete(req)  # direct submit: marks complete + finalizes
    assert rec.audit() == []
    stages = rec.stage_summaries()["silo"]["stages"]
    assert stages["service"]["sum_ns"] == 100 + 50 + 50
    assert stages["preempt_wait"]["sum_ns"] == 150 + 550
    assert stages["sched_queue"]["sum_ns"] == 100
    assert rec.stage_summaries()["silo"]["stage_sum_ns"] == 1_000


def test_every_label_opens_a_stage():
    # A label outside STAGE_AFTER would silently break telescoping.
    assert set(STAGE_AFTER.values()) <= set(STAGE_ORDER)


def test_labels_that_open_a_stage_are_the_audited_ones():
    # finalize's one pass checks legality only for stage-opening labels.
    assert LEGAL_NEXT.keys() == STAGE_AFTER.keys()


def test_zero_duration_stages_keep_the_sum_exact():
    rec = _recorder()
    req = _Req(_App("mc"))
    _fly(rec, req, ("submit", 100), ("run_start", 100, 0))
    rec.sim.now = 300
    rec.on_complete(req)
    summary = rec.stage_summaries()["mc"]
    assert "sched_queue" not in summary["stages"]  # zero-length, skipped
    assert summary["stage_sum_ns"] == summary["total_sum_ns"] == 200


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------
def test_shed_drop_dup_counted_but_not_aggregated():
    rec = _recorder()
    app = _App("mc")
    shed = _Req(app, net_token=object())
    _fly(rec, shed, ("client_send", 0), ("ingress", 10), ("shed", 20))
    rec.sim.now = 30
    rec.finalize(shed, "shed")
    dropped = _Req(app, net_token=object())
    _fly(rec, dropped, ("client_send", 40))
    rec.sim.now = 50
    rec.finalize(dropped, "drop")
    assert rec.outcome_counts() == {"mc": {"drop": 1, "shed": 1}}
    assert rec.audit() == []
    assert rec.stage_summaries() == {}  # only "done" flights aggregate


def test_finalize_is_idempotent_and_marks_after_are_ignored():
    rec = _recorder()
    req = _Req(_App("mc"))
    _fly(rec, req, ("submit", 0), ("run_start", 10, 0))
    rec.sim.now = 20
    rec.on_complete(req)
    rec.finalize(req, "drop")  # already finalized: no second outcome
    rec.on_complete(req)
    assert rec.outcome_counts() == {"mc": {"done": 1}}


def test_on_complete_leaves_net_requests_to_the_fabric():
    rec = _recorder()
    req = _Req(_App("mc"), net_token=object())
    _fly(rec, req, ("client_send", 0), ("ingress", 10), ("submit", 20),
         ("run_start", 30, 0))
    rec.on_complete(req)
    assert req.flight is not None  # still open: fabric finalizes it
    assert rec.outcome_counts() == {}


# ----------------------------------------------------------------------
# Audit
# ----------------------------------------------------------------------
def test_illegal_transition_is_flagged():
    rec = _recorder()
    req = _Req(_App("mc"))
    _fly(rec, req, ("submit", 0), ("complete", 10))  # skipped run_start
    rec.sim.now = 10
    rec.finalize(req, "done")
    assert any("illegal transition submit -> complete" in v
               for v in rec.audit())


def test_non_monotonic_marks_are_flagged():
    rec = _recorder()
    req = _Req(_App("mc"))
    _fly(rec, req, ("submit", 100), ("run_start", 50, 0),
         ("complete", 200))
    rec.sim.now = 200
    rec.finalize(req, "done")
    assert any("non-monotonic" in v for v in rec.audit())


def test_overlapping_service_segments_are_flagged():
    rec = _recorder()
    for start in (0, 50):  # second run overlaps the first on core 1
        req = _Req(_App("mc"))
        _fly(rec, req, ("submit", start), ("run_start", start, 1))
        rec.sim.now = start + 100
        rec.on_complete(req)
    assert any("overlapping service segments" in v for v in rec.audit())


def test_disjoint_segments_on_different_cores_are_clean():
    rec = _recorder()
    for start, core in ((0, 1), (50, 2), (100, 1)):
        req = _Req(_App("mc"))
        _fly(rec, req, ("submit", start), ("run_start", start, core))
        rec.sim.now = start + 40
        rec.on_complete(req)
    assert rec.audit() == []


def test_violation_flood_is_capped():
    rec = _recorder()
    for i in range(60):
        req = _Req(_App("mc"))
        _fly(rec, req, ("submit", i), ("complete", i + 1))
        rec.sim.now = i + 1
        rec.finalize(req, "done")
    violations = rec.audit()
    assert len(violations) == 51  # 50 stored + the "... and N more" line
    assert "more violations" in violations[-1]


# ----------------------------------------------------------------------
# Reservoir and measurement window
# ----------------------------------------------------------------------
def test_reservoir_keeps_the_k_slowest():
    rec = _recorder(reservoir_k=2)
    for i, total in enumerate((300, 100, 900, 500)):
        req = _Req(_App("mc"))
        base = i * 10_000
        _fly(rec, req, ("submit", base), ("run_start", base, 0))
        rec.sim.now = base + total
        rec.on_complete(req)
    totals = [t["total_ns"] for t in rec.slowest_traces()]
    assert totals == [900, 500]


def test_begin_measurement_drops_aggregates_keeps_open_flights():
    rec = _recorder()
    done = _Req(_App("mc"))
    _fly(rec, done, ("submit", 0), ("run_start", 1, 0))
    rec.sim.now = 2
    rec.on_complete(done)
    inflight = _Req(_App("mc"))
    _fly(rec, inflight, ("submit", 5), ("run_start", 6, 0))
    rec.begin_measurement()
    assert rec.stage_summaries() == {}
    assert rec.outcome_counts() == {}
    assert rec.slowest_traces() == []
    # The open flight carries across the boundary and still finalizes.
    rec.sim.now = 10
    rec.on_complete(inflight)
    assert rec.outcome_counts() == {"mc": {"done": 1}}
    assert rec.audit() == []


# ----------------------------------------------------------------------
# One-pass finalize against the three-pass reference
# ----------------------------------------------------------------------
class _ThreePassRecorder(FlightRecorder):
    """The three-pass ``finalize`` (``_check``, the stage fold and
    ``_collect_segments`` each walk the marks), kept verbatim as the
    reference the one-pass version must match field for field."""

    def finalize(self, request, outcome):
        marks = request.flight
        if marks is None:
            return
        request.flight = None
        marks.append((outcome, self.sim.now, None))
        app = request.app.name
        key = (app, outcome)
        self._outcomes[key] = self._outcomes.get(key, 0) + 1
        total = marks[-1][1] - marks[0][1]
        self._check(app, marks, total)
        if outcome != "done":
            return
        self._totals[app].append(total)
        prev_label, prev_ts, _prev_core = marks[0]
        for label, ts, core in marks[1:]:
            stage = STAGE_AFTER.get(prev_label)
            if stage is not None and ts > prev_ts:
                self._stage_ns[(app, stage)].append(ts - prev_ts)
            prev_label, prev_ts = label, ts
        self._collect_segments(marks)
        if self.reservoir_k:
            entry = (total, self._seq, app, outcome, tuple(marks))
            self._seq += 1
            if len(self._slowest) < self.reservoir_k:
                heapq.heappush(self._slowest, entry)
            elif entry > self._slowest[0]:
                heapq.heapreplace(self._slowest, entry)

    def _collect_segments(self, marks):
        for i, (label, ts, core) in enumerate(marks[:-1]):
            if label == "run_start" and core is not None:
                end = marks[i + 1][1]
                if len(self._segments) < self.max_segments:
                    self._segments.append((core, ts, end))
                else:
                    self.segments_dropped += 1

    def _check(self, app, marks, total):
        stage_sum = 0
        prev_label, prev_ts, _ = marks[0]
        for label, ts, _core in marks[1:]:
            if ts < prev_ts:
                self._violate(f"{app}: non-monotonic mark {label}@{ts} "
                              f"after {prev_label}@{prev_ts}")
            legal = LEGAL_NEXT.get(prev_label)
            if legal is not None and label not in legal:
                self._violate(
                    f"{app}: illegal transition {prev_label} -> {label}")
            if prev_label in STAGE_AFTER:
                stage_sum += ts - prev_ts
            else:
                self._violate(f"{app}: mark {prev_label!r} opens no stage")
            prev_label, prev_ts = label, ts
        if stage_sum != total:
            self._violate(f"{app}: stage sum {stage_sum} != total {total}")


def _net_path(t, core=1):
    """A clean over-the-network flight starting at ``t``; done at +1500."""
    return [("client_send", t, None), ("ingress", t + 500, None),
            ("admit", t + 600, None), ("submit", t + 600, None),
            ("run_start", t + 700, core), ("complete", t + 1_000, None)]


#: (app, outcome, marks, finalize time) — every shape the audit knows
_FLIGHTS = [
    # done with a preemption, migrating between cores
    ("mc", "done",
     [("client_send", 0, None), ("ingress", 500, None),
      ("admit", 600, None), ("submit", 600, None),
      ("run_start", 700, 1), ("preempt", 800, 1),
      ("run_start", 900, 2), ("complete", 1_000, None)], 1_500),
    # shed, drop and dup
    ("mc", "shed",
     [("client_send", 2_000, None), ("ingress", 2_500, None),
      ("shed", 2_500, None)], 3_000),
    ("mc", "drop", [("client_send", 3_000, None)], 3_400),
    ("silo", "dup", _net_path(4_000), 5_500),
    # a non-monotonic mark, then an illegal transition
    ("mc", "done",
     [("submit", 6_100, None), ("run_start", 6_050, 0),
      ("complete", 6_200, None)], 6_200),
    ("mc", "done", [("submit", 7_000, None), ("complete", 7_010, None)],
     7_010),
    # a mid-flight label that opens no stage (and is illegal after submit)
    ("silo", "done",
     [("submit", 8_000, None), ("bogus", 8_005, None),
      ("run_start", 8_010, 0), ("complete", 8_020, None)], 8_020),
    # a zero-length stage and a run_start without a core
    ("mc", "done",
     [("submit", 9_000, None), ("run_start", 9_000, None),
      ("complete", 9_300, None)], 9_300),
    # enough service segments to hit a cap of 3
    ("mc", "done", _net_path(10_000, core=3), 11_500),
    ("mc", "done", _net_path(12_000, core=4), 13_500),
    # reservoir ties on total (1_500, like every _net_path flight)
    ("silo", "done", _net_path(14_000), 15_500),
    ("mc", "done", _net_path(16_000), 17_500),
    # faster than every reservoir entry: must not enter
    ("mc", "done",
     [("submit", 18_000, None), ("run_start", 18_001, 1),
      ("complete", 18_002, None)], 18_003),
]

_COMPARED = ("_violations", "_violations_dropped", "_stage_ns", "_totals",
             "_segments", "segments_dropped", "_outcomes", "_slowest",
             "_seq")


def _replay(recorder, flights):
    for app, outcome, marks, end in flights:
        req = _Req(_App(app))
        req.flight = list(marks)
        recorder.sim.now = end
        recorder.finalize(req, outcome)
        assert req.flight is None


@pytest.mark.parametrize("kwargs", [
    {"reservoir_k": 2, "max_segments": 3},
    {"reservoir_k": 0},
    {},
])
def test_one_pass_finalize_matches_three_pass_reference(kwargs):
    one = FlightRecorder(_Sim(), **kwargs)
    three = _ThreePassRecorder(_Sim(), **kwargs)
    # Thirty replays push past the violation cap and turn the reservoir.
    flights = _FLIGHTS * 30
    _replay(one, flights)
    _replay(three, flights)
    for field in _COMPARED:
        assert getattr(one, field) == getattr(three, field), field
    assert one.audit() == three.audit()
    assert one.slowest_traces() == three.slowest_traces()
    # The fixture really reaches every violation kind and both caps.
    messages = three._violations
    for text in ("non-monotonic", "illegal transition", "opens no stage",
                 "stage sum"):
        assert any(text in m for m in messages), text
    assert three._violations_dropped > 0
    if kwargs.get("max_segments") == 3:
        assert three.segments_dropped > 0


# ----------------------------------------------------------------------
# Null recorder (zero-overhead default)
# ----------------------------------------------------------------------
def test_null_flight_records_nothing():
    req = _Req(_App("mc"))
    NULL_FLIGHT.begin(req)
    NULL_FLIGHT.mark(req, "submit")
    NULL_FLIGHT.on_complete(req)
    NULL_FLIGHT.finalize(req, "done")
    assert req.flight is None
    assert NULL_FLIGHT.outcome_counts() == {}
    assert not NULL_FLIGHT.enabled
    assert FlightRecorder.enabled is True
    assert NullFlightRecorder.enabled is False


# ----------------------------------------------------------------------
# Breakdown formatting
# ----------------------------------------------------------------------
def test_format_breakdown_reports_zero_delta():
    rec = _recorder()
    req = _Req(_App("mc"))
    _fly(rec, req, ("submit", 0), ("run_start", 100, 0))
    rec.sim.now = 1_100
    rec.on_complete(req)
    text = format_breakdown("vessel", rec.stage_summaries(),
                            client_samples={"mc": [1_100]})
    assert "latency breakdown by stage" in text
    assert "delta 0 ns" in text
    assert "vs measured latency 0 ns" in text
    assert "service" in text and "sched_queue" in text


# ----------------------------------------------------------------------
# End-to-end: the recorder wired through a real colocation run
# ----------------------------------------------------------------------
def _small_cfg(**kwargs):
    from repro.experiments.common import ExperimentConfig
    return ExperimentConfig(num_workers=4, sim_ms=4, warmup_ms=1,
                            seed=11, latency_breakdown=True, **kwargs)


def _run(system="vessel", cfg=None, capsys=None, **kwargs):
    from repro.experiments.common import run_colocation
    return run_colocation(system, cfg or _small_cfg(),
                          l_specs=[("memcached", "mc", 1.0)],
                          b_specs=("linpack",), **kwargs)


def test_vessel_direct_run_audit_clean_and_reconciled(capsys):
    report = _run()
    assert report.flight_audit == []
    summary = report.latency_stages["mc"]
    assert summary["stage_sum_ns"] == summary["total_sum_ns"]
    assert summary["total"]["count"] == report.completed["mc"]
    assert report.flight_counts["mc"]["done"] == report.completed["mc"]
    # server-side queue wait is the flight's sched_queue stage
    sched_queue = summary["stages"]["sched_queue"]
    assert sched_queue["count"] > 0
    assert sched_queue["p99_us"] >= 0.0
    out = capsys.readouterr().out
    assert "latency breakdown by stage" in out
    assert "delta 0 ns" in out


def test_net_run_with_faults_and_admission_stays_clean(capsys):
    from repro.faults.plan import FaultPlan
    from repro.net import NetConfig
    from repro.overload.admission import AdmissionConfig

    cfg = _small_cfg(net=NetConfig())
    report = _run(cfg=cfg,
                  admission=AdmissionConfig(max_queue_depth=8),
                  fault_plan=FaultPlan(seed=5).drop_packets(0.05))
    assert report.flight_audit == []
    counts = report.flight_counts["mc"]
    assert counts["done"] > 0
    assert counts.get("drop", 0) > 0  # injected packet loss observed
    summary = report.latency_stages["mc"]
    assert summary["stage_sum_ns"] == summary["total_sum_ns"]
    assert set(summary["stages"]) >= {"net_in", "nic_ring",
                                      "sched_queue", "service", "net_out"}


def test_flight_runs_are_deterministic(capsys):
    def fingerprint():
        report = _run()
        return repr((report.latency_stages, report.flight_counts,
                     report.flight_audit, report.events_fired))
    assert fingerprint() == fingerprint()


@pytest.mark.parametrize("system", ["caladan", "arachne", "ideal",
                                    "linux-cfs"])
def test_baseline_systems_record_clean_flights(system, capsys):
    report = _run(system=system)
    assert report.flight_audit == []
    summary = report.latency_stages["mc"]
    assert summary["stage_sum_ns"] == summary["total_sum_ns"]
    assert report.flight_counts["mc"]["done"] > 0
