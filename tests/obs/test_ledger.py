"""Tests for the operation ledger (repro.obs.ledger)."""

import json

import pytest

from repro.experiments import tab1_context_switch as tab1
from repro.experiments.common import ExperimentConfig
from repro.obs import write_chrome_trace
from repro.obs.hist import bucket_index, bucket_upper_ns
from repro.obs.ledger import NULL_LEDGER, NullLedger, OpLedger
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


# ----------------------------------------------------------------------
# Charging and queries
# ----------------------------------------------------------------------
def test_charge_accumulates_count_and_total():
    ledger = OpLedger()
    ledger.charge("wrpkru", 10, core=1, domain="hw")
    ledger.charge("wrpkru", 30, core=2, domain="hw")
    assert ledger.op_counts()["wrpkru"] == 2
    assert ledger.total_ns(domain="hw", op="wrpkru") == 40


def test_same_op_name_in_two_domains_stays_separate():
    ledger = OpLedger()
    ledger.charge("switch", 100, domain="uproc")
    ledger.charge("switch", 7, domain="kernel")
    assert ledger.total_ns(domain="uproc") == 100
    assert ledger.total_ns(domain="kernel") == 7
    assert ledger.op_counts()["switch"] == 2
    assert ledger.op_counts("uproc")["switch"] == 1


def test_count_op_is_a_zero_cost_charge():
    ledger = OpLedger()
    ledger.count_op("uthread_create", domain="uproc")
    assert ledger.op_counts()["uthread_create"] == 1
    assert ledger.total_ns() == 0


def test_op_counts_merges_across_domains():
    ledger = OpLedger()
    ledger.charge("x", 1, domain="a")
    ledger.charge("x", 1, domain="b")
    ledger.charge("y", 1, domain="a")
    assert ledger.op_counts() == {"x": 2, "y": 1}
    assert ledger.op_counts(domain="a") == {"x": 1, "y": 1}


# ----------------------------------------------------------------------
# Histogram / percentiles
# ----------------------------------------------------------------------
def test_bucket_roundtrip_error_is_bounded():
    # The bucket upper bound over-estimates by at most 1/8 (12.5 %).
    for ns in [1, 2, 3, 7, 8, 9, 100, 160, 1000, 12345, 10**6]:
        upper = bucket_upper_ns(bucket_index(ns))
        assert ns <= upper <= ns * 1.125 + 1


def test_percentiles_from_log_histogram():
    ledger = OpLedger()
    for _ in range(99):
        ledger.charge("op", 100, domain="d")
    ledger.charge("op", 10_000, domain="d")
    p50 = ledger.percentile_ns("op", 50)
    p999 = ledger.percentile_ns("op", 99.9)
    assert p50 == pytest.approx(100, rel=0.125)
    assert p999 == pytest.approx(10_000, rel=0.125)


def test_percentile_of_unknown_op_is_nan():
    assert OpLedger().percentile_ns("nope", 50) != \
        OpLedger().percentile_ns("nope", 50)  # NaN != NaN


# ----------------------------------------------------------------------
# Reset
# ----------------------------------------------------------------------
def test_reset_clears_everything():
    ledger = OpLedger(capture_events=True)
    ledger.charge("op", 10, domain="d")
    ledger.reset()
    assert ledger.total_ns() == 0
    assert ledger.op_counts() == {}
    assert ledger.events == []


# ----------------------------------------------------------------------
# Null ledger
# ----------------------------------------------------------------------
def test_null_ledger_records_nothing():
    ledger = NullLedger()
    ledger.charge("op", 100, core=0, domain="d")
    ledger.count_op("op2", domain="d")
    assert ledger.op_counts() == {}
    assert ledger.total_ns() == 0
    assert not ledger.enabled
    assert not NULL_LEDGER.enabled


def test_hot_path_guard_contract():
    # Components guard with `if ledger.enabled:`; both classes expose it
    # as a cheap class attribute.
    assert OpLedger.enabled is True
    assert NullLedger.enabled is False


# ----------------------------------------------------------------------
# Export determinism
# ----------------------------------------------------------------------
def _populate(ledger):
    ledger.charge("b_op", 10, core=1, domain="z")
    ledger.charge("a_op", 20, core=0, domain="a")
    ledger.charge("c_op", 30, domain="m")


def test_rows_are_sorted_by_domain_then_op():
    one, two = OpLedger(), OpLedger()
    _populate(one)
    # Same charges, different insertion order.
    two.charge("c_op", 30, domain="m")
    two.charge("b_op", 10, core=1, domain="z")
    two.charge("a_op", 20, core=0, domain="a")
    keys = [(d, op) for d, op, _ in one.rows()]
    assert keys == sorted(keys)
    assert keys == [(d, op) for d, op, _ in two.rows()]


def test_breakdown_table_is_deterministic_and_complete():
    one, two = OpLedger(), OpLedger()
    _populate(one)
    two.charge("c_op", 30, domain="m")
    two.charge("a_op", 20, core=0, domain="a")
    two.charge("b_op", 10, core=1, domain="z")
    assert one.breakdown_table() == two.breakdown_table()
    table = one.breakdown_table()
    for op in ("a_op", "b_op", "c_op"):
        assert op in table
    # domain filter leaves only that domain's rows
    filtered = one.breakdown_table(domain="a")
    assert "a_op" in filtered and "b_op" not in filtered


# ----------------------------------------------------------------------
# Event capture + Chrome trace export
# ----------------------------------------------------------------------
def test_event_capture_is_bounded():
    sim = Simulator()
    ledger = OpLedger(sim=sim, capture_events=True, max_events=3)
    for _ in range(5):
        ledger.charge("op", 1, domain="d")
    assert len(ledger.events) == 3
    assert ledger.events_dropped == 2
    # statistics keep counting past the event cap
    assert ledger.op_counts()["op"] == 5


def test_chrome_trace_round_trips_through_json(tmp_path):
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.record(0, 1000, 2000, "app:x")
    ledger = OpLedger(sim=sim, capture_events=True)
    sim.at(1500, lambda: ledger.charge("op", 40, core=0, domain="d"))
    sim.run()
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), (tracer, ledger))
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    span = [e for e in events if e["ph"] == "X" and e["pid"] == 0]
    op = [e for e in events if e["ph"] == "X" and e["pid"] == 1]
    assert span == [{"name": "app:x", "cat": "span", "ph": "X",
                     "ts": 1.0, "dur": 1.0, "pid": 0, "tid": 0}]
    assert op[0]["name"] == "op"
    assert op[0]["ts"] == pytest.approx(1.5)
    assert op[0]["args"]["cost_ns"] == 40


# ----------------------------------------------------------------------
# Charge handles (the precomputed fast path hot call sites use)
# ----------------------------------------------------------------------
def test_handle_charges_match_plain_charges():
    plain = OpLedger()
    fast = OpLedger()
    handle = fast.handle("uproc", "uctx_save")
    for cost, core in ((10, 1), (30, 2), (5, 1)):
        plain.charge("uctx_save", cost, core=core, domain="uproc")
        handle.charge(cost, core)
    assert fast.op_counts() == plain.op_counts()
    assert fast.total_ns(domain="uproc") == plain.total_ns(domain="uproc")
    assert fast.breakdown_table() == plain.breakdown_table()


def test_handle_never_creates_zero_count_rows():
    ledger = OpLedger()
    ledger.handle("uproc", "uiret")  # built but never charged
    assert list(ledger.rows()) == []


def test_handle_survives_reset():
    """begin_measurement() resets the ledger mid-run; handles created
    before the reset must charge into the post-reset window."""
    ledger = OpLedger()
    handle = ledger.handle("uproc", "uctx_save")
    handle.charge(100, 0)
    ledger.reset()
    handle.charge(7, 3)
    assert ledger.op_counts()["uctx_save"] == 1
    assert ledger.total_ns(domain="uproc") == 7


def test_handle_capture_events():
    ledger = OpLedger(capture_events=True)
    handle = ledger.handle("hw", "uintr_send")
    handle.charge(40, 2)
    assert len(ledger.events) == 1
    _ts, core, domain, op, cost_ns = ledger.events[0]
    assert (domain, op, cost_ns, core) == ("hw", "uintr_send", 40, 2)


def test_null_ledger_handle_is_a_noop():
    handle = NULL_LEDGER.handle("uproc", "anything")
    handle.charge(100, 0)
    handle.charge(100)
    assert NULL_LEDGER.op_counts() == {}


# ----------------------------------------------------------------------
# Table 1's switch path
# ----------------------------------------------------------------------
def test_tab1_ledger_accounts_for_every_switch_nanosecond():
    """The ledger's per-op charges for the VESSEL park-switch path sum
    exactly to the end-to-end switch costs: no unattributed nanoseconds
    appear in Table 1."""
    iterations = 2_000
    ledger = OpLedger()
    samples = tab1.measure_vessel(ExperimentConfig(), iterations,
                                  ledger=ledger)

    switch_ops = ("uctx_save", "callgate_enter", "runtime_queue",
                  "uctx_restore", "callgate_exit", "switch_noise",
                  "switch_jitter")
    per_op = {op: ledger.total_ns(domain="uproc", op=op)
              for op in switch_ops}
    assert sum(per_op.values()) == sum(samples)
    # Every constituent op was charged once per switch.
    counts = ledger.op_counts("uproc")
    for op in switch_ops:
        assert counts[op] == iterations
    # Park switches never pay the preemption path.
    assert "uiret" not in counts
