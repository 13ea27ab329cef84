"""Smoke tests: every experiment module runs at tiny scale and its
headline qualitative claims hold.  The benchmarks run the full versions;
these keep CI fast while still exercising every code path."""


import pytest

from repro.experiments.common import SMOKE_PROFILE, ExperimentConfig

SMOKE = ExperimentConfig(**SMOKE_PROFILE)


def test_tab1_shapes():
    from repro.experiments import tab1_context_switch as tab1
    results = tab1.run(SMOKE, iterations=4000)
    vessel, caladan = results["vessel"], results["caladan"]
    assert vessel["avg_us"] == pytest.approx(0.161, abs=0.03)
    assert caladan["avg_us"] == pytest.approx(2.1, abs=0.15)
    assert caladan["avg_us"] > 10 * vessel["avg_us"]
    assert vessel["p999_us"] > vessel["p50_us"]


def test_fig03_timeline():
    from repro.experiments import fig03_realloc_timeline as fig3
    results = fig3.run(SMOKE)
    assert results["measured_total_us"] == pytest.approx(5.3, abs=0.01)
    assert len(results["timeline"]) == 6
    starts = [p["start_us"] for p in results["timeline"]]
    assert starts == sorted(starts)


def test_micro_uintr_ratio():
    from repro.experiments import micro_uintr
    results = micro_uintr.run(SMOKE, iterations=200)
    assert 10 <= results["ratio"] <= 25  # paper: up to 15x


def test_fig01_decline_and_waste():
    from repro.experiments import fig01_colocation_cost as fig1
    results = fig1.run(SMOKE, load_points=(0.3, 0.6))
    assert 0.03 <= results["max_decline"] <= 0.35
    assert 0.02 <= results["max_waste"] <= 0.30
    for point in results["points"]:
        assert point["total_normalized"] < 1.0


def test_fig02_kernel_share_grows():
    from repro.experiments import fig02_dense_cost as fig2
    results = fig2.run(SMOKE, counts=(1, 4))
    kernel = [p["kernel_fraction"] for p in results["points"]]
    assert kernel[1] > kernel[0]


def test_fig09_vessel_beats_caladan():
    from repro.experiments import fig09_colocation as fig9
    results = fig9.run(SMOKE, systems=("vessel", "caladan"),
                       loads=(0.3, 0.6), include_slow_systems=False,
                       include_silo=False)
    summary = results["summary"]
    assert summary["vessel"]["avg_decline"] \
        < summary["caladan"]["avg_decline"]
    for row in results["memcached"]:
        if row["system"] == "vessel":
            twin = next(r for r in results["memcached"]
                        if r["system"] == "caladan"
                        and r["load"] == row["load"])
            assert row["p999_us"] < twin["p999_us"]


def test_fig09_silo_amortizes_overhead():
    from repro.experiments import fig09_colocation as fig9
    cfg = ExperimentConfig(num_workers=4, sim_ms=30, warmup_ms=5)
    results = fig9.run(cfg, systems=("vessel", "caladan"), loads=(0.5,),
                       include_slow_systems=False, include_silo=True)
    for row in results["silo"]:
        assert row["total_normalized"] > 0.9  # both near-ideal


def test_fig10_dense_shapes():
    from repro.experiments import fig10_dense as fig10
    results = fig10.run(SMOKE, counts=(1, 6), loads=(0.4, 0.6))
    summary = results["summary"]
    vessel_drop = 1 - (summary[("vessel", 6)]["peak_tput_mops"]
                       / max(1e-9,
                             summary[("vessel", 1)]["peak_tput_mops"]))
    caladan_drop = 1 - (summary[("caladan-dr-l", 6)]["peak_tput_mops"]
                        / max(1e-9,
                              summary[("caladan-dr-l", 1)]
                              ["peak_tput_mops"]))
    assert caladan_drop > vessel_drop  # dense colocation hurts Caladan more


def test_fig11_cache_friendliness():
    from repro.experiments import fig11_cache as fig11
    results = fig11.run(SMOKE, total_ops=8000)
    assert results["vessel"]["miss_rate"] < results["caladan"]["miss_rate"]
    assert results["vessel"]["completion_ms"] \
        < results["caladan"]["completion_ms"]
    assert 0.0 < results["completion_reduction"] < 0.6


def test_fig13_accuracy_part():
    from repro.experiments import fig13_membw as fig13
    results = fig13.run_accuracy_part(SMOKE, targets=(0.1, 0.5, 1.0))
    errors = results["max_error"]
    assert errors["vessel"] < 0.10
    assert errors["mba"] > 0.2
    assert errors["cgroup"] > errors["vessel"]
    for row in results["rows"]:
        # nobody regulates *below* a trivial floor or above solo max
        for key in ("vessel", "mba", "cgroup"):
            assert 0.0 <= row[key] <= 1.05


def test_fig13_colocation_part():
    from repro.experiments import fig13_membw as fig13
    cfg = ExperimentConfig(num_workers=4, sim_ms=10, warmup_ms=2)
    results = fig13.run_colocation_part(cfg, loads=(0.4,))
    rows = results["rows"]
    vessel = next(r for r in rows if r["system"] == "vessel")
    caladan = next(r for r in rows if r["system"] == "caladan")
    assert vessel["p999_us"] < caladan["p999_us"]
    assert vessel["total_normalized"] > caladan["total_normalized"]


def test_fig12_control_plane_factors():
    """The Figure 12 knee mechanics without the full (slow) sweep."""
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngStreams
    from repro.hardware.machine import Machine
    from repro.hardware.timing import CostModel
    from repro.vessel.scheduler import VesselSystem
    from repro.baselines.caladan import CaladanSystem

    def factors(system_cls, workers):
        sim = Simulator()
        machine = Machine(sim, CostModel(), workers + 1)
        system = system_cls(sim, machine, RngStreams(0),
                            worker_cores=machine.cores[1:])
        return system.control_plane_factor

    assert factors(VesselSystem, 8) < 1.5
    assert factors(VesselSystem, 42) > 5
    assert factors(VesselSystem, 44) > factors(VesselSystem, 42)
    # Caladan's IOKernel saturates far earlier.
    assert factors(CaladanSystem, 8) < 1.5
    assert factors(CaladanSystem, 32) > 10
    assert factors(CaladanSystem, 8) > factors(VesselSystem, 8)


def test_fig07_fractions():
    from repro.experiments import fig07_timeline as fig7
    results = fig7.run(SMOKE)
    vessel, caladan = results["vessel"], results["caladan"]
    assert vessel["app_fraction"] > caladan["app_fraction"]
    assert caladan["kernel_fraction"] > vessel["kernel_fraction"]
    assert "core" in vessel["strip"]
    for data in results.values():
        total = (data["app_fraction"] + data["runtime_fraction"]
                 + data["kernel_fraction"] + data["idle_fraction"])
        assert total == pytest.approx(1.0, abs=0.02)


def test_sensitivity_monotone():
    from repro.experiments import sensitivity as sens
    results = sens.run(SMOKE, multipliers=(1, 16, 48))
    rows = results["rows"]
    assert rows[0]["waste"] < rows[-1]["waste"]
    assert rows[0]["p999_us"] < rows[-1]["p999_us"]
    assert results["caladan_waste"] > 0


def test_ablations_structure():
    from repro.experiments import ablations as abl
    results = abl.run(SMOKE)
    names = {r["variant"] for r in results["rows"]}
    assert names == {"vessel", "vessel-no-uintr", "vessel-kernel-switch",
                     "caladan", "caladan-fast-switch",
                     "vessel-q5us", "vessel-q20us", "vessel-q80us"}
    gate = results["gate_defense"]
    assert gate["full_defenses_ns"] > gate["no_defenses_ns"]
    # the quantum sweep's dense shape spends more on switching at the
    # short quantum than at the long one
    by_name = {r["variant"]: r for r in results["rows"]}
    assert by_name["vessel-q5us"]["waste_fraction"] \
        >= by_name["vessel-q80us"]["waste_fraction"]


def test_cli_list_and_selection(capsys):
    from repro.__main__ import main as front_end
    assert front_end(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig09" in out and "sensitivity" in out


def test_cli_rejects_unknown():
    from repro.__main__ import main as front_end
    with pytest.raises(SystemExit):
        front_end(["fig99"])
