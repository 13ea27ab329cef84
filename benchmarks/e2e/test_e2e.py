"""Tests of the end-to-end benchmark's own machinery.

Run from the repository root: ``PYTHONPATH=src python -m pytest
benchmarks/e2e -q``.
"""

import cProfile
import json
import os
import pstats
import re

import pytest

import repro
from benchmarks.e2e import bench, child, layers
from benchmarks.e2e.workloads import (
    INPUT_SETS,
    WORKLOADS,
    build,
    input_seed,
)
from repro.experiments.common import run_colocation

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))
#: run lengths that keep each in-process run around a second
SHRUNK_MS = {"colo-vessel": 4, "colo-caladan": 4, "wide-bursty": 2,
             "overload-chaos": 4}


def _report(name, seed=1):
    inputs = build(name, seed, SHRUNK_MS[name])
    return run_colocation(inputs.system, inputs.cfg, **inputs.kwargs)


def test_fold_accounts_for_profiled_self_time():
    profiler = cProfile.Profile()
    child.run("overload-chaos", 3, sim_ms=SHRUNK_MS["overload-chaos"],
              profiler=profiler)
    folded = layers.fold(pstats.Stats(profiler).stats, REPRO_DIR)
    assert folded.total_s > 0
    assert folded.unattributed_s <= 0.01 * folded.total_s
    for layer in ("sim", "net", "overload", "faults", "obs", "vessel"):
        assert folded.calls[layer] > 0, layer
    assert sum(folded.share(layer) for layer in layers.LAYERS) \
        == pytest.approx(1.0, abs=0.01)
    assert folded.ncalls[layers.SIM_RUN] == 1
    assert folded.cum_s[layers.RUN_COLOCATION] >= folded.cum_s[layers.SIM_RUN]


def test_fold_charges_c_calls_to_the_calling_layer():
    engine = os.path.join(REPRO_DIR, "sim", "engine.py")
    net = os.path.join(REPRO_DIR, "net", "link.py")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    helper = ("/usr/lib/python3/random.py", 1, "helper")
    stats = {
        (engine, 1, "at"): (10, 10, 1.0, 4.0, {}),
        (net, 1, "send"): (5, 5, 2.0, 3.0, {}),
        heappush: (15, 15, 3.0, 3.0, {(engine, 1, "at"): (10, 10, 2.0, 2.0),
                                      helper: (5, 5, 1.0, 1.0)}),
        helper: (5, 5, 0.5, 1.5, {(net, 1, "send"): (5, 5, 0.5, 1.5)}),
    }
    folded = layers.fold(stats, REPRO_DIR)
    assert folded.self_s["sim"] == pytest.approx(3.0)
    assert folded.self_s["net"] == pytest.approx(3.5)
    assert folded.unattributed_s == 0
    assert folded.calls == {"sim": 10, "net": 5}


def test_every_repro_package_maps_to_a_layer():
    packages = [entry for entry in os.listdir(REPRO_DIR)
                if os.path.isfile(os.path.join(REPRO_DIR, entry,
                                               "__init__.py"))]
    assert packages
    for package in packages:
        path = os.path.join(REPRO_DIR, package, "__init__.py")
        assert layers.layer_of(path, REPRO_DIR) == package
    assert set(packages) == set(layers.LAYERS) | set(layers.UNREACHED)


def test_an_unknown_repro_package_raises():
    with pytest.raises(layers.UnmappedModule):
        layers.layer_of(os.path.join(REPRO_DIR, "newpkg", "mod.py"),
                        REPRO_DIR)
    assert layers.layer_of("~", REPRO_DIR) is None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_digest_is_stable_and_sensitive(name):
    report = _report(name)
    fields = child.field_digests(report)
    assert fields == child.field_digests(_report(name))
    assert child.problems(report, WORKLOADS[name]) == []
    report.completed["mc"] += 1
    changed = child.field_digests(report)
    assert [f for f in child.DIGEST_FIELDS if changed[f] != fields[f]] \
        == ["completed"]
    assert child.combined_digest(changed) != child.combined_digest(fields)


def test_digest_failures_name_the_differing_fields():
    good = {name: "0" * 16 for name in child.DIGEST_FIELDS}
    bad = dict(good, latency="1" * 16)
    records = [{"seed": 5, "digest": "a", "fields": good},
               {"seed": 5, "digest": "b", "fields": bad},
               {"seed": 5, "digest": "a", "fields": good},
               {"seed": 6, "digest": "a", "fields": good}]
    assert bench.digest_failures(records, {}) \
        == [(1, "latency differ from the other seed-5 runs")]
    assert bench.digest_failures(records, {"6": bad}) == [
        (1, "latency differ from the other seed-5 runs"),
        (3, "latency differ from the seed-6 pin")]


def test_seed_42_is_pinned_for_every_workload():
    pins = bench.load_pins()
    assert set(pins) == set(WORKLOADS)
    for name in WORKLOADS:
        for index in range(INPUT_SETS):
            fields = pins[name][str(input_seed(42, index))]
            assert set(fields) == set(child.DIGEST_FIELDS)


def test_metric_names_and_counts():
    names = [m.name for m in bench.END_TO_END + bench.DIAGNOSTIC
             + bench.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert 1 <= len(bench.END_TO_END) <= 16
    assert 1 <= len(bench.PER_LAYER) <= 128
    assert all(m.bound is not None and 0 < m.bound <= 0.25
               for m in bench.END_TO_END)
    assert "setup_s" in [m.name for m in bench.END_TO_END]


def test_benchmark_json_matches_the_code():
    with open(bench.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert spec["paths"] == ["benchmarks/e2e"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {name: w.why for name, w in WORKLOADS.items()}
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in bench.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in bench.PER_LAYER]


def test_traced_values_cover_every_per_layer_metric():
    folded = layers.Fold(self_s={"sim": 2.0}, calls={"sim": 7},
                         cum_s={layers.SIM_RUN: 1.5,
                                layers.RUN_COLOCATION: 1.75})
    untraced = {"run_cpu_s": 1.0, "run_cpu_norm": 10.0,
                "counters": {"sim.events": 1000, "net.retries": 0,
                             "net.losses": 0, "net.unserved_frac": 0.0,
                             "overload.shed": 0, "faults.injected": 0,
                             "faults.uncontained": 0}}
    values = bench.traced_values(untraced, {"run_cpu_norm": 30.0}, folded)
    assert set(values) == {m.name for m in bench.PER_LAYER}
    assert values["trace.overhead"] == 3.0
    assert values["sim.cpu_ns_per_event"] == pytest.approx(1e6)
    assert values["experiments.assembly_s"] == pytest.approx(0.25)


def test_refuses_to_run_without_simulator_sources(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.setattr(bench, "REPRO_DIR", tmp_path / "repro")
    assert bench.main(["--workload", "colo-vessel"]) == 2
    assert capsys.readouterr().out == ""
