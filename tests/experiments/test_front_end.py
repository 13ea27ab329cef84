"""The one front end: ``--smoke`` applies ``SMOKE_PROFILE`` plus a
module's ``SMOKE`` overrides, and nothing else.

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


def _stub(monkeypatch, key="stub", smoke=None):
    """Register a stub experiment under ``key``; returns its call log."""
    calls = []
    module = types.ModuleType(f"{key}_experiment")

    def main(cfg):
        calls.append(("main", cfg))
        print(f"{key} main")
        return {"key": key}

    module.main = main
    if smoke is not None:
        module.SMOKE = smoke
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setitem(front_end.EXPERIMENTS, key, module.__name__)
    return calls


def test_smoke_applies_the_profile(monkeypatch):
    calls = _stub(monkeypatch)
    assert front_end.main(["stub", "--smoke", "--seed", "7"]) == 0
    assert [call[0] for call in calls] == ["main"]
    cfg = calls[0][1]
    assert {key: getattr(cfg, key) for key in SMOKE_PROFILE} \
        == SMOKE_PROFILE
    assert cfg.seed == 7


def test_run_module_returns_the_results_of_main(monkeypatch):
    _stub(monkeypatch)
    assert front_end._run_module("stub", ExperimentConfig(), True) \
        == {"key": "stub"}


def test_module_smoke_overrides_beat_the_shared_profile(monkeypatch):
    calls = _stub(monkeypatch, smoke=dict(sim_ms=6))
    front_end.main(["stub", "--smoke", "--jobs", "2"])
    cfg = calls[0][1]
    assert cfg.sim_ms == 6
    assert cfg.num_workers == SMOKE_PROFILE["num_workers"]
    assert cfg.warmup_ms == SMOKE_PROFILE["warmup_ms"]
    assert cfg.jobs == 2


def test_without_smoke_the_default_config_runs(monkeypatch):
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


def test_fanned_out_experiments_print_in_selection_order(monkeypatch,
                                                         capsys):
    """With several experiments and ``--jobs 2`` each runs in a worker,
    and their output is printed in selection order."""
    _stub(monkeypatch, key="first")
    _stub(monkeypatch, key="second")
    front_end.main(["first", "second", "--smoke", "--jobs", "2"])
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.endswith("main")]
    assert lines == ["first main", "second main"]


def test_smoke_and_paper_scale_are_rejected(monkeypatch):
    calls = _stub(monkeypatch)
    with pytest.raises(SystemExit):
        front_end.main(["stub", "--smoke", "--scale", "paper"])
    assert calls == []


def test_tracecheck_arms_do_not_inherit_trace_out():
    """Only the chaos arm's trace is written, once."""
    cfg = ExperimentConfig(trace_out="t.json", **SMOKE_PROFILE)
    assert [arm_cfg.trace_out for _, _, arm_cfg, _ in tracecheck.arms(cfg)] \
        == [None] * 4


def test_cli_list_and_selection(capsys):
    assert front_end.main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig09" in out and "sensitivity" in out


def test_cli_rejects_unknown():
    with pytest.raises(SystemExit):
        front_end.main(["fig99"])
