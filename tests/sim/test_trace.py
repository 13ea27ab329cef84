"""Tests for the tracer and timeline renderer."""

import pytest

from repro.sim.trace import Tracer, category_glyph, render_timeline
from repro.hardware.machine import Machine


def test_record_and_query_spans(sim):
    tracer = Tracer(sim)
    tracer.record(0, 100, 200, "app:x")
    tracer.record(0, 200, 300, "idle")
    assert tracer.spans_between(0, 0, 1000) == [
        (100, 200, "app:x"), (200, 300, "idle")]


def test_spans_clipped_to_window(sim):
    tracer = Tracer(sim)
    tracer.record(0, 100, 500, "app:x")
    assert tracer.spans_between(0, 200, 300) == [(200, 300, "app:x")]


def test_zero_length_spans_skipped(sim):
    tracer = Tracer(sim)
    tracer.record(0, 100, 100, "app:x")
    assert tracer.spans_between(0, 0, 1000) == []


def test_span_cap_drops_excess(sim):
    tracer = Tracer(sim, max_spans_per_core=2)
    for i in range(5):
        tracer.record(0, i * 10, i * 10 + 5, "idle")
    assert len(tracer.spans[0]) == 2
    assert tracer.dropped == 3


def test_busy_fraction(sim):
    tracer = Tracer(sim)
    tracer.record(0, 0, 400, "app:x")
    tracer.record(0, 400, 1000, "idle")
    assert tracer.busy_fraction(0, 0, 1000) == pytest.approx(0.4)
    assert tracer.busy_fraction(0, 0, 1000, prefix="idle") == \
        pytest.approx(0.6)


def test_glyphs():
    assert category_glyph("app:memcached") == "M"
    assert category_glyph("runtime") == "r"
    assert category_glyph("kernel") == "K"
    assert category_glyph("idle") == "."
    assert category_glyph("weird") == "?"


def test_render_majority_per_bucket(sim):
    tracer = Tracer(sim)
    tracer.record(0, 0, 70, "app:a")
    tracer.record(0, 70, 100, "kernel")
    text = render_timeline(tracer, 0, 100, cores=[0], width=10,
                           legend=False)
    strip = text.split("|")[1]
    assert strip == "AAAAAAAKKK"


def test_render_legend_and_empty_window(sim):
    tracer = Tracer(sim)
    tracer.record(0, 0, 10, "app:a")
    text = render_timeline(tracer, 0, 10, cores=[0], width=5)
    assert "A=app:a" in text
    with pytest.raises(ValueError):
        render_timeline(tracer, 10, 10)


def test_machine_integration(sim, costs):
    machine = Machine(sim, costs, 2)
    tracer = Tracer(sim)
    machine.attach_tracer(tracer)
    machine.cores[0].run("app:svc", 500)
    sim.run(until=800)
    machine.settle_all()
    assert tracer.spans_between(0, 0, 800) == [
        (0, 500, "app:svc"), (500, 800, "idle")]


def test_tracer_agrees_with_accounting(sim, costs):
    machine = Machine(sim, costs, 1)
    tracer = Tracer(sim)
    machine.attach_tracer(tracer)
    core = machine.cores[0]
    core.run("app:x", 300, lambda: core.run("kernel", 200))
    sim.run(until=1000)
    machine.settle_all()
    total_app = sum(e - s for s, e, c in tracer.spans[0] if c == "app:x")
    assert total_app == core.buckets["app:x"]


def test_spans_between_bisects_correct_window(sim):
    # Many sequential spans; windows landing on and between boundaries
    # must return exactly the overlapping spans (bisect fast path).
    tracer = Tracer(sim)
    for i in range(1000):
        tracer.record(0, i * 10, i * 10 + 10, f"s{i}")
    assert tracer.spans_between(0, 250, 270) == [
        (250, 260, "s25"), (260, 270, "s26")]
    # half-open: a span ending exactly at t0 or starting at t1 is excluded
    assert tracer.spans_between(0, 260, 260) == []
    got = tracer.spans_between(0, 255, 9995)
    assert got[0] == (255, 260, "s25")
    assert got[-1] == (9990, 9995, "s999")
    assert len(got) == 975
