"""The paper's claims, each stated once.

:data:`CLAIMS` has one entry per row of the EXPERIMENTS.md headline
scoreboard: the experiment it reads, the paper's text, ``measure`` (the
"Measured here" cell) and ``holds`` (the verdict).  Every entry reads
``module.run(ExperimentConfig())``, the run ``python -m repro <name>``
prints: seed 42 at the default profile.  Each module runs once and all
of its rows share the result.  ``jobs=2`` fans a sweep out over two
worker processes, which leaves every number unchanged.

A row's test fails when its generated line differs from the scoreboard,
so a verdict that flips or a number that moves shows up as a doc diff.
Rows whose run takes under two seconds are checked in tier-1; the rest
carry the ``heavy`` marker, which the default ``addopts`` deselect.
CI's ``smoke (claims)`` entry runs them with
``python -m pytest tests/test_claims.py -m heavy``.

A change that moves a number rewrites the scoreboard
(``PYTHONPATH=src python tests/test_claims.py``) and lists each changed
cell in CHANGES.md.
"""

import functools
import importlib
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

import pytest

from repro.__main__ import EXPERIMENTS
from repro.experiments.common import ExperimentConfig

DOC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "EXPERIMENTS.md")
HEADER = "| Claim (paper) | Measured here | Verdict |"
#: experiments whose documented run takes under two seconds
TIER1 = {"tab1", "fig03", "micro", "fig07", "fig02"}


@dataclass(frozen=True)
class Claim:
    id: str
    experiment: str
    paper: str
    measure: Callable[[Dict], str]
    holds: Callable[[Dict], bool]
    #: what a ✓ agrees on ("quantitative", "shape", "direction", ...)
    kind: str = ""

    def row(self, results: Dict) -> str:
        verdict = f"{'✓' if self.holds(results) else '✗'} {self.kind}"
        return (f"| {self.paper} | {self.measure(results)} "
                f"| {verdict.rstrip()} |")


@functools.lru_cache(maxsize=None)
def results(experiment: str) -> Dict:
    module = importlib.import_module(EXPERIMENTS[experiment])
    return module.run(ExperimentConfig(jobs=2))


def signed(fraction: float, digits: int = 0) -> str:
    return f"{fraction:+.{digits}%}".replace("-", "−")


def latency(us: float) -> str:
    return f"{us / 1000:.1f} ms" if us >= 1000 else f"{us:.1f} µs"


# ----------------------------------------------------------------------
# Table 1, Figure 3, §2.2: the calibrated switch paths
# ----------------------------------------------------------------------
def tab1_holds(r):
    vessel, caladan = r["vessel"], r["caladan"]
    return (abs(vessel["avg_us"] - 0.161) <= 0.015
            and 0.4 <= vessel["p999_us"] <= 1.1
            and abs(caladan["avg_us"] - 2.103) <= 0.12
            and 4.5 <= caladan["p999_us"] <= 6.5
            and caladan["avg_us"] / vessel["avg_us"] > 10)


def fig03_holds(r):
    runtime = [p["phase"] for p in r["timeline"]
               if p["category"] == "runtime"]
    return (abs(r["measured_total_us"] - 5.3) <= 0.01
            and len(r["timeline"]) == 6
            and runtime == ["userspace state save"])


# ----------------------------------------------------------------------
# Figures 1, 2 and 7: what colocation costs Caladan
# ----------------------------------------------------------------------
def fig01_holds(r):
    return (0.05 <= r["max_decline"] <= 0.35
            and 0.04 <= r["max_waste"] <= 0.30
            and all(p["total_normalized"] < 0.97 and p["kernel_cores"] > 0
                    and p["runtime_cores"] > 0 for p in r["points"]))


def fig02_measure(r):
    first, last = r["points"][0], r["points"][-1]
    return (f"{first['kernel_fraction']:.0%} → {last['kernel_fraction']:.0%}"
            f" from {first['instances']} to {last['instances']} apps; worst "
            f"P999 {first['p999_us']:.0f} → {last['p999_us']:.0f} µs")


def fig02_holds(r):
    first, last = r["points"][0], r["points"][-1]
    return (last["kernel_fraction"] > 1.5 * first["kernel_fraction"]
            and last["p999_us"] > first["p999_us"])


def fig07_measure(r):
    vessel, caladan = r["vessel"], r["caladan"]
    return (f"traced: VESSEL {vessel['app_fraction']:.0%} app / "
            f"{vessel['kernel_fraction']:.0%} kernel; Caladan "
            f"{caladan['app_fraction']:.0%} app, "
            f"{caladan['runtime_fraction']:.0%} runtime, "
            f"{caladan['kernel_fraction']:.0%} kernel, "
            f"{caladan['idle_fraction']:.0%} idle")


def fig07_holds(r):
    vessel, caladan = r["vessel"], r["caladan"]
    return (vessel["app_fraction"] > 0.9
            and vessel["kernel_fraction"] < 0.02
            and caladan["app_fraction"] < vessel["app_fraction"] - 0.1
            and caladan["kernel_fraction"] > 0.03
            and caladan["runtime_fraction"] > vessel["runtime_fraction"]
            and caladan["idle_fraction"] > 0.02)


# ----------------------------------------------------------------------
# Figure 9: L-app + B-app colocation
# ----------------------------------------------------------------------
CALADANS = ("caladan", "caladan-dr-l", "caladan-dr-h")


def p999s(r, *systems):
    return [row["p999_us"] for row in r["memcached"]
            if row["system"] in systems]


def fig09_decline_holds(r):
    vessel = r["summary"]["vessel"]["avg_decline"]
    return (vessel < 0.10
            and r["summary"]["caladan"]["avg_decline"] > 1.5 * vessel)


def fig09_tail_measure(r):
    vessel, caladans = p999s(r, "vessel"), p999s(r, *CALADANS)
    summary = r["summary"]
    return (f"{min(vessel):.1f}–{max(vessel):.1f} µs vs "
            f"{min(caladans):.1f}–{max(caladans):.1f} µs; DR-H avg decline "
            f"{summary['caladan-dr-h']['avg_decline']:.1%} vs Caladan's "
            f"{summary['caladan']['avg_decline']:.1%}")


def fig09_tail_holds(r):
    """VESSEL's P999 is below every Caladan variant's at each load, and
    DR-H is more efficient than plain Caladan."""
    below = all(
        vessel["p999_us"] < other["p999_us"]
        for vessel in r["memcached"] if vessel["system"] == "vessel"
        for other in r["memcached"]
        if other["system"] in CALADANS and other["load"] == vessel["load"])
    summary = r["summary"]
    return below and (summary["caladan-dr-h"]["avg_decline"]
                      < summary["caladan"]["avg_decline"])


def fig09_slow_measure(r):
    arachne = [row for row in r["memcached"] if row["system"] == "arachne"]
    cfs = p999s(r, "linux-cfs")
    return ("Arachne P999 " + ", ".join(
        f"{latency(row['p999_us'])} at {row['rate_mops']:.1f} Mops"
        for row in arachne)
        + f"; CFS P999 {min(cfs) / 1000:.1f}–{max(cfs) / 1000:.1f} ms")


def fig09_slow_holds(r):
    return (max(p999s(r, "linux-cfs")) > 1000
            and max(p999s(r, "arachne")) > 100)


def silo_floor(r, system):
    return min(row["total_normalized"] for row in r["silo"]
               if row["system"] == system)


# ----------------------------------------------------------------------
# Figures 10 to 13
# ----------------------------------------------------------------------
def fig10_change(r, system, key="peak_tput_mops"):
    """Relative change of ``key`` from 1 to 10 instances."""
    summary = r["summary"]
    return (summary[(system, 10)][key]
            / max(1e-9, summary[(system, 1)][key]) - 1)


def fig10_measure(r):
    return (f"Caladan peak {signed(fig10_change(r, 'caladan-dr-l'))}, P999 "
            f"{signed(fig10_change(r, 'caladan-dr-l', 'p999_at_peak_us'))}; "
            f"VESSEL peak {signed(fig10_change(r, 'vessel'))}")


def fig10_holds(r):
    caladan_drop = -fig10_change(r, "caladan-dr-l")
    vessel_drop = -fig10_change(r, "vessel")
    summary = r["summary"]
    return (caladan_drop > 0.15 and vessel_drop < caladan_drop
            and vessel_drop < 0.15
            and summary[("vessel", 10)]["peak_tput_mops"]
            > summary[("caladan-dr-l", 10)]["peak_tput_mops"])


def fig11_holds(r):
    vessel, caladan = r["vessel"]["miss_rate"], r["caladan"]["miss_rate"]
    return (vessel < 0.005 and caladan > 0.01
            and caladan > 20 * max(vessel, 1e-6)
            and 0.03 <= r["completion_reduction"] <= 0.45)


def fig13a_rows(r, system):
    return [row for row in r["colocation"]["rows"] if row["system"] == system]


def fig13a_measure(r):
    vessel, caladan = (
        [row["p999_us"] for row in fig13a_rows(r, system)]
        for system in ("vessel", "caladan"))
    colo = r["colocation"]
    return (f"up to {signed(colo['max_advantage'], 1)}; P999 VESSEL "
            f"{min(vessel):.1f}–{max(vessel):.1f} µs, Caladan "
            f"{min(caladan):.1f}–{max(caladan):.1f} µs "
            f"(SLO {colo['slo_us']:.0f} µs)")


def fig13a_holds(r):
    """VESSEL's advantage, its SLO at every load, and more throughput
    with a lower tail than Caladan's at each load."""
    vessel, caladan = fig13a_rows(r, "vessel"), fig13a_rows(r, "caladan")
    return (r["colocation"]["max_advantage"] > 0.08
            and all(row["meets_slo"] for row in vessel)
            and all(v["p999_us"] < c["p999_us"]
                    and v["total_normalized"] > c["total_normalized"]
                    for v, c in zip(vessel, caladan)))


def fig13b_measure(r):
    error, low = r["accuracy"]["max_error"], r["accuracy"]["rows"][0]
    return (f"max error: VESSEL {error['vessel']:.0%}, MBA {error['mba']:.0%},"
            f" cgroup {error['cgroup']:.0%}; a {low['target']:.0%} target "
            f"gets MBA {low['mba']:.0%}, cgroup {low['cgroup']:.0%}")


def fig13b_holds(r):
    error, low = r["accuracy"]["max_error"], r["accuracy"]["rows"][0]
    return (error["vessel"] < 0.10 and error["mba"] > 0.25
            and error["cgroup"] > 0.12
            and low["mba"] > 3 * low["target"]
            and low["cgroup"] > 1.5 * low["target"]
            and all(0.0 <= row[key] <= 1.05 for row in r["accuracy"]["rows"]
                    for key in ("vessel", "mba", "cgroup")))


# ----------------------------------------------------------------------
# Not in the paper: ablations and switch-cost sensitivity
# ----------------------------------------------------------------------
def variants(r):
    return {row["variant"]: row for row in r["rows"]}


def ablations_measure(r):
    v = variants(r)
    gate = r["gate_defense"]
    return (f"waste {v['vessel']['waste_fraction']:.1%} → "
            f"{v['vessel-kernel-switch']['waste_fraction']:.1%} with kernel "
            f"switches; P999 {v['vessel']['p999_us']:.1f} → "
            f"{v['vessel-no-uintr']['p999_us']:.1f} µs without Uintr; app "
            f"fraction Caladan {v['caladan']['app_fraction']:.3f}, fast-switch"
            f" {v['caladan-fast-switch']['app_fraction']:.3f}, VESSEL "
            f"{v['vessel']['app_fraction']:.3f}; defenses "
            f"{gate['full_defenses_ns'] - gate['no_defenses_ns']} ns")


def ablations_holds(r):
    v = variants(r)
    vessel, fast = v["vessel"], v["caladan-fast-switch"]
    gate = r["gate_defense"]
    return (v["vessel-kernel-switch"]["waste_fraction"]
            > 3 * vessel["waste_fraction"]
            and abs(v["vessel-no-uintr"]["waste_fraction"]
                    - vessel["waste_fraction"]) <= 0.02
            and v["vessel-no-uintr"]["p999_us"] > vessel["p999_us"]
            and v["caladan"]["app_fraction"] < fast["app_fraction"]
            < vessel["app_fraction"]
            and 10 <= gate["full_defenses_ns"] - gate["no_defenses_ns"] <= 100
            and v["vessel-q5us"]["waste_fraction"]
            >= v["vessel-q80us"]["waste_fraction"])


def sensitivity_measure(r):
    rows = r["rows"]
    efficiency, latency = (
        "none" if us is None else f"{us:.2f} µs"
        for us in (r["efficiency_crossover_us"], r["latency_crossover_us"]))
    return (f"waste {rows[0]['waste']:.1%} → {rows[-1]['waste']:.1%} at "
            f"{rows[0]['switch_us']:.2f} → {rows[-1]['switch_us']:.2f} µs;"
            f" crossovers: efficiency {efficiency}, latency {latency}")


def sensitivity_holds(r):
    rows = r["rows"]
    efficiency = r["efficiency_crossover_us"]
    latency = r["latency_crossover_us"]
    return (rows[-1]["waste"] > 3 * rows[0]["waste"]
            and rows[-1]["p999_us"] > rows[0]["p999_us"]
            and r["caladan_waste"] > 0
            and efficiency is not None and efficiency < 2.2
            and (latency is None or latency > 2 * efficiency))


CLAIMS: List[Claim] = [
    Claim("tab1", "tab1",
          "Switch latency: VESSEL 0.161 µs avg / 0.706 µs P999; Caladan "
          "2.103 / 5.461 µs (Table 1)",
          lambda r: (f"{r['vessel']['avg_us']:.3f} / "
                     f"{r['vessel']['p999_us']:.3f} µs; "
                     f"{r['caladan']['avg_us']:.3f} / "
                     f"{r['caladan']['p999_us']:.3f} µs"),
          tab1_holds, "quantitative"),
    Claim("fig03", "fig03",
          "Caladan core reallocation = 5.3 µs kernel pipeline (Fig. 3)",
          lambda r: (f"{r['measured_total_us']:.2f} µs, "
                     f"{len(r['timeline'])} phases, one in userspace"),
          fig03_holds, "quantitative (calibrated)"),
    Claim("micro", "micro",
          "Uintr ≈ 15× lower latency than IPI signals (§2.2)",
          lambda r: (f"{r['ratio']:.1f}× ({r['uintr_us']:.2f} vs "
                     f"{r['ipi_signal_us']:.2f} µs)"),
          lambda r: (10 <= r["ratio"] <= 25 and r["uintr_us"] < 0.5
                     and r["ipi_signal_us"] > 2.0)),
    Claim("fig01", "fig01",
          "Caladan colocation wastes up to 18% tput / 17% cycles (Fig. 1)",
          lambda r: (f"{r['max_decline']:.1%} decline / "
                     f"{r['max_waste']:.1%} cycles"),
          fig01_holds, "shape (smaller magnitude)"),
    Claim("fig02", "fig02",
          "Kernel cycle share grows with colocated apps (Fig. 2)",
          fig02_measure, fig02_holds),
    Claim("fig09-decline", "fig09",
          "VESSEL near-flat total tput (−6.6% avg), Caladan −16.1% avg "
          "(Fig. 9)",
          lambda r: (
              f"VESSEL {signed(-r['summary']['vessel']['avg_decline'], 1)}, "
              f"Caladan {signed(-r['summary']['caladan']['avg_decline'], 1)}"),
          fig09_decline_holds, "shape (smaller magnitudes)"),
    Claim("fig09-tail", "fig09",
          "VESSEL P999 below all Caladan variants; DR-H efficient but "
          "high-tail (Fig. 9)",
          fig09_tail_measure, fig09_tail_holds),
    Claim("fig09-slow", "fig09",
          "Arachne collapses ≈1 Mops; CFS P999 > 10 ms (Fig. 9)",
          fig09_slow_measure, fig09_slow_holds,
          "shape (CFS tail 3× under paper's)"),
    Claim("fig09-silo", "fig09",
          "Silo: both systems near-ideal (Fig. 9 bottom)",
          lambda r: (f"VESSEL ≥ {silo_floor(r, 'vessel'):.2f}, Caladan ≥ "
                     f"{silo_floor(r, 'caladan'):.2f} normalized"),
          lambda r: min(silo_floor(r, "vessel"),
                        silo_floor(r, "caladan")) > 0.9),
    Claim("fig10", "fig10",
          "Dense ×10: Caladan peak −25%, P999 +20%; VESSEL unchanged "
          "(Fig. 10)",
          fig10_measure, fig10_holds, "direction (Caladan penalty larger here)"),
    Claim("fig11", "fig11",
          "Cache: miss 4.6% → 0.0415%, completion −6–24% (Fig. 11)",
          lambda r: (f"{r['caladan']['miss_rate']:.2%} → "
                     f"{r['vessel']['miss_rate']:.2%}, completion "
                     f"{signed(-r['completion_reduction'], 1)}"),
          fig11_holds, "direction"),
    Claim("fig12-vessel", "fig12",
          "VESSEL goodput +25.4% from 32→42 cores, dips at 44 (Fig. 12)",
          lambda r: (f"VESSEL {signed(r['gains']['vessel'][42], 1)} at 42, "
                     f"{signed(r['gains']['vessel'][44], 1)} at 44"),
          lambda r: (r["gains"]["vessel"][42] > 0.15
                     and r["gains"]["vessel"][44] < r["gains"]["vessel"][42]
                     and r["gains"]["vessel"][42]
                     > r["gains"]["caladan"][34] + 0.1)),
    Claim("fig12-caladan", "fig12",
          "Caladan goodput +1.45% from 32→34 cores, declining beyond "
          "(Fig. 12)",
          lambda r: (f"Caladan {signed(r['gains']['caladan'][34], 1)} at 34, "
                     f"{signed(r['gains']['caladan'][36], 1)} at 36"),
          lambda r: (abs(r["gains"]["caladan"][34]) < 0.15
                     and r["gains"]["caladan"][36]
                     <= r["gains"]["caladan"][34]),
          "shape"),
    Claim("fig13a", "fig13",
          "VESSEL up to +43% total tput vs Caladan under bw budget "
          "(Fig. 13a)",
          fig13a_measure, fig13a_holds, "direction"),
    Claim("fig13b", "fig13",
          "MBA & cgroup regulate far above target; VESSEL accurate "
          "(Fig. 13b)",
          fig13b_measure, fig13b_holds),
    Claim("fig07", "fig07",
          "Fig. 7's schematic timelines (VESSEL packs cores; Caladan "
          "spins/switches/idles)",
          fig07_measure, fig07_holds,
          "(rendered strips in `fig07_timeline`)"),
    Claim("ablations", "ablations",
          "Ablations: the one-level policy needs cheap switches, Uintr buys "
          "the tail, cheap switches alone help Caladan partly, the §4.2 "
          "defenses cost tens of ns",
          ablations_measure, ablations_holds, "not in the paper"),
    Claim("sensitivity", "sensitivity",
          "Switch-cost sensitivity: VESSEL's efficiency edge needs a "
          "switch under 2.2 µs; its latency edge outlasts twice that "
          "crossover",
          sensitivity_measure, sensitivity_holds, "not in the paper"),
]


def scoreboard_bounds(lines: List[str]):
    """``(first, end)`` line indices of the scoreboard's body rows."""
    first = lines.index(HEADER) + 2
    end = first
    while end < len(lines) and lines[end].startswith("|"):
        end += 1
    return first, end


def scoreboard() -> List[str]:
    with open(DOC, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    first, end = scoreboard_bounds(lines)
    return lines[first:end]


def test_scoreboard_has_one_line_per_claim():
    rows = scoreboard()
    assert len(rows) == len(CLAIMS)
    for row, claim in zip(rows, CLAIMS):
        assert row.startswith(f"| {claim.paper} | "), claim.id


@pytest.mark.parametrize("claim", [
    pytest.param(claim, id=claim.id,
                 marks=() if claim.experiment in TIER1 else pytest.mark.heavy)
    for claim in CLAIMS])
def test_claim_row_matches_scoreboard(claim):
    row = claim.row(results(claim.experiment))
    assert scoreboard()[CLAIMS.index(claim)] == row


if __name__ == "__main__":
    # Rewrite the scoreboard: PYTHONPATH=src python tests/test_claims.py
    with open(DOC, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    first, end = scoreboard_bounds(lines)
    lines[first:end] = [claim.row(results(claim.experiment))
                        for claim in CLAIMS]
    with open(DOC, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
