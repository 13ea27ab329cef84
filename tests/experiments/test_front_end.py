"""The one front end: ``--smoke`` applies ``SMOKE_PROFILE`` plus a
module's ``SMOKE`` overrides and then calls the module's ``gate``.

A stub module stands in for a real experiment, so nothing here runs a
simulation.
"""

import sys
import types

import pytest

from repro import __main__ as front_end
from repro.experiments import tracecheck
from repro.experiments.common import (
    PAPER_PROFILE,
    SMOKE_PROFILE,
    ExperimentConfig,
)


def _stub(monkeypatch, key="stub", smoke=None, gate=True):
    """Register a stub experiment under ``key``; returns its call log."""
    calls = []
    module = types.ModuleType(f"{key}_experiment")

    def main(cfg):
        calls.append(("main", cfg))
        print(f"{key} main")
        return {"key": key}

    def run_gate(cfg, results):
        calls.append(("gate", cfg, results))
        print(f"{key} gate")

    module.main = main
    if gate:
        module.gate = run_gate
    if smoke is not None:
        module.SMOKE = smoke
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setitem(front_end.EXPERIMENTS, key, module.__name__)
    return calls


def test_smoke_applies_the_profile_then_calls_the_gate(monkeypatch):
    calls = _stub(monkeypatch)
    assert front_end.main(["stub", "--smoke", "--seed", "7"]) == 0
    assert [call[0] for call in calls] == ["main", "gate"]
    cfg = calls[0][1]
    assert {key: getattr(cfg, key) for key in SMOKE_PROFILE} \
        == SMOKE_PROFILE
    assert cfg.seed == 7
    _, gate_cfg, results = calls[1]
    assert gate_cfg is cfg
    assert results == {"key": "stub"}


def test_module_smoke_overrides_beat_the_shared_profile(monkeypatch):
    calls = _stub(monkeypatch, smoke=dict(sim_ms=6))
    front_end.main(["stub", "--smoke", "--jobs", "2"])
    cfg = calls[0][1]
    assert cfg.sim_ms == 6
    assert cfg.num_workers == SMOKE_PROFILE["num_workers"]
    assert cfg.warmup_ms == SMOKE_PROFILE["warmup_ms"]
    assert cfg.jobs == 2


def test_without_smoke_the_default_config_runs_and_no_gate(monkeypatch):
    calls = _stub(monkeypatch, smoke=dict(sim_ms=6))
    front_end.main(["stub"])
    assert [call[0] for call in calls] == ["main"]
    cfg, default = calls[0][1], ExperimentConfig()
    assert (cfg.num_workers, cfg.sim_ms, cfg.warmup_ms) \
        == (default.num_workers, default.sim_ms, default.warmup_ms)


def test_scale_paper_applies_the_paper_profile(monkeypatch):
    calls = _stub(monkeypatch)
    front_end.main(["stub", "--scale", "paper"])
    cfg = calls[0][1]
    assert {key: getattr(cfg, key) for key in PAPER_PROFILE} \
        == PAPER_PROFILE


def test_smoke_without_a_gate_only_runs_main(monkeypatch):
    calls = _stub(monkeypatch, gate=False)
    front_end.main(["stub", "--smoke"])
    assert [call[0] for call in calls] == ["main"]


def test_a_failing_gate_fails_the_command(monkeypatch):
    _stub(monkeypatch)

    def failing_gate(cfg, results):
        raise RuntimeError("gate failed")

    monkeypatch.setattr(sys.modules["stub_experiment"], "gate",
                        failing_gate)
    with pytest.raises(RuntimeError, match="gate failed"):
        front_end.main(["stub", "--smoke"])


def test_smoke_gates_run_in_fanned_out_workers(monkeypatch, capsys):
    """With several experiments and ``--jobs 2`` each runs in a worker;
    the gates still run there and print in selection order."""
    _stub(monkeypatch, key="first")
    _stub(monkeypatch, key="second")
    front_end.main(["first", "second", "--smoke", "--jobs", "2"])
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.endswith(
        ("main", "gate"))]
    assert lines == ["first main", "first gate", "second main",
                     "second gate"]


def test_smoke_and_paper_scale_are_rejected(monkeypatch):
    calls = _stub(monkeypatch)
    with pytest.raises(SystemExit):
        front_end.main(["stub", "--smoke", "--scale", "paper"])
    assert calls == []


def test_tracecheck_arms_do_not_inherit_trace_out():
    """Only the chaos arm's trace is written, once, after the gates."""
    cfg = ExperimentConfig(trace_out="t.json", **SMOKE_PROFILE)
    assert [arm_cfg.trace_out for _, _, arm_cfg, _ in tracecheck.arms(cfg)] \
        == [None] * 4
