"""The paper's claims and the scenario commands' checks, each stated once.

:data:`CLAIMS` has one entry per row of the EXPERIMENTS.md headline
scoreboard: the experiment it reads, the paper's text, ``measure`` (the
"Measured here" cell) and ``holds`` (the verdict).  Every entry reads
the results of its command's pinned run (``tests/pinned.py``): seed 42
at the profile its EXPERIMENTS.md section quotes, run once per session
at ``--jobs 2``, which leaves every number unchanged.  All of a
command's rows, and its stdout digest in ``tests/test_golden_stdout.py``,
share that one run.

A row's test fails when its generated line differs from the scoreboard,
so a verdict that flips or a number that moves shows up as a doc diff.
A paper row's ✗ is a reported finding.  A ``required`` row is a check
on a scenario command (containment, conservation, audit): its test also
fails whenever it does not hold, whatever the scoreboard says.  Rows
whose run takes under two seconds are checked in tier-1; the rest carry
the ``heavy`` marker, which the default ``addopts`` deselect.  CI's
``smoke (heavy)`` entry runs them with ``-m heavy``.

A change that moves a number rewrites the scoreboard
(``PYTHONPATH=src python -m tests.test_claims``) and lists each changed
cell in CHANGES.md.
"""

import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

import pytest

from repro.experiments import oversub
from repro.experiments.cluster import SLO_P99_US as FLEET_SLO_US
from repro.experiments.cluster import sustained_load
from repro.experiments.flashcrowd import FLAGSHIP, SLO_P99_US
from tests.pinned import marks, pinned_run

DOC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "EXPERIMENTS.md")
HEADER = "| Claim (paper) | Measured here | Verdict |"


@dataclass(frozen=True)
class Claim:
    id: str
    experiment: str
    paper: str
    measure: Callable[[Dict], str]
    holds: Callable[[Dict], bool]
    #: what a ✓ agrees on ("quantitative", "shape", "direction", ...)
    kind: str = ""
    #: a check rather than a finding: its test fails when it is ✗
    required: bool = False

    def row(self, results: Dict) -> str:
        verdict = f"{'✓' if self.holds(results) else '✗'} {self.kind}"
        return (f"| {self.paper} | {self.measure(results)} "
                f"| {verdict.rstrip()} |")


def results(experiment: str) -> Dict:
    return pinned_run(experiment)[1]


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
    rows = r["switch_sweep"]
    efficiency, latency = (
        "none" if us is None else f"{us:.2f} µs"
        for us in (r["efficiency_crossover_us"], r["latency_crossover_us"]))
    return (f"waste {rows[0]['waste']:.1%} → {rows[-1]['waste']:.1%} at "
            f"{rows[0]['switch_us']:.2f} → {rows[-1]['switch_us']:.2f} µs;"
            f" crossovers: efficiency {efficiency}, latency {latency}")


def sensitivity_holds(r):
    rows = r["switch_sweep"]
    efficiency = r["efficiency_crossover_us"]
    latency = r["latency_crossover_us"]
    return (rows[-1]["waste"] > 3 * rows[0]["waste"]
            and rows[-1]["p999_us"] > rows[0]["p999_us"]
            and r["caladan_waste"] > 0
            and efficiency is not None and efficiency < 2.2
            and (latency is None or latency > 2 * efficiency))


# ----------------------------------------------------------------------
# Not in the paper: the scenario commands.  Findings for ``policies``
# and ``oversub``; checks (``required``) for the rest.
# ----------------------------------------------------------------------
def injected(report):
    return sum(report.fault_injected.values())


def contained(report):
    return (f"{injected(report)} faults injected, "
            f"{len(report.uncontained)} uncontained")


def net_tail_measure(r):
    gaps = [client - server for _, _, server, client in r["points"]]
    return (f"client P99 {min(gaps):+.1f} to {max(gaps):+.1f} µs over "
            f"server P99 at {len(gaps)} points")


def net_tail_holds(r):
    return all(client > 0 and not math.isnan(client) and client >= server
               for _, _, server, client in r["points"])


def net_lossy_holds(r):
    report = r["lossy"]
    return (injected(report) > 0
            and report.net_ops["memcached"]["retries"] > 0
            and not report.uncontained)


def policies(r):
    return {row["policy"]: row for row in r["rows"]}


def policies_measure(r):
    p = policies(r)
    return (f"hi P999 SJF {p['sjf']['hi_p999_us']:.1f} vs "
            f"{p['default']['hi_p999_us']:.1f} µs; trust-group idle "
            f"{p['trust-group']['idle_frac']:.0%}; priority hi P99 "
            f"{p['priority']['hi_p99_us']:.1f} vs "
            f"{p['default']['hi_p99_us']:.1f} µs, lo P999 "
            f"{p['priority']['lo_p999_us']:.1f} vs "
            f"{p['default']['lo_p999_us']:.1f} µs")


def policies_holds(r):
    p = policies(r)
    default, priority = p["default"], p["priority"]
    return (p["sjf"]["hi_p999_us"] > default["hi_p999_us"]
            and p["trust-group"]["idle_frac"] > 0
            and priority["hi_p99_us"] <= default["hi_p99_us"]
            and priority["lo_p999_us"] >= default["lo_p999_us"])


def churn_measure(r):
    snap = r["churned"].churn
    return (f"{snap['created']} created, {snap['destroyed']} destroyed, "
            f"{snap['active']} active, {len(r['churned'].uncontained)} "
            f"leaks")


def churn_holds(r):
    snap = r["churned"].churn
    return (snap["created"] >= 10
            and snap["created"] - snap["destroyed"] == snap["active"]
            and not r["churned"].uncontained)


def oversub_arms(r, protected):
    """``(tenants, report)`` of the arms with or without admission."""
    return [(tenants, report)
            for (_, tenants, arm_protected), report in r["arms"]
            if arm_protected == protected]


def worst_p99(report):
    return max(report.p99_us(name) for name in report.completed)


def oversub_measure(r):
    protected, unprotected = (
        [report for _, report in oversub_arms(r, flag)]
        for flag in (True, False))
    peak = max(max(report.queue_peak.values()) for report in protected)
    ends = [max(report.queue_final.values()) for report in unprotected]
    p99s = [[worst_p99(report) for report in arms]
            for arms in (protected, unprotected)]
    return (f"queue peak ≤ {peak} with admission; unprotected queues end at "
            f"{min(ends)}–{max(ends)}; worst P99 "
            f"{latency(min(p99s[0]))}–{latency(max(p99s[0]))} vs "
            f"{latency(min(p99s[1]))}–{latency(max(p99s[1]))}")


def oversub_holds(r):
    """Admission holds every queue at its watermark, the unprotected
    queues never drain, and at each oversubscription factor the
    protected worst P99 is an order of magnitude below the unprotected
    one."""
    protected = oversub_arms(r, True)
    unprotected = oversub_arms(r, False)
    return (all(max(report.queue_peak.values())
                <= oversub.ADMISSION.max_queue_depth
                for _, report in protected)
            and all(max(report.queue_final.values()) > 0
                    for _, report in unprotected)
            and all(10 * worst_p99(guarded) < worst_p99(bare)
                    for (_, guarded), (_, bare)
                    in zip(protected, unprotected)))


def flagship(r):
    return dict(r["flashcrowd"]["arms"])[FLAGSHIP]


def overload_sheds(report):
    return report.net_ops.get("mc", {}).get("sheds", 0)


def overload_slo_holds(r):
    arm = flagship(r)
    return arm.client_p99_us("mc") <= SLO_P99_US and overload_sheds(arm) > 0


def queue_and_retries(report):
    """An overload arm's worst queue peak and its clients' retries."""
    return (max(report.queue_peak.values(), default=0),
            report.net_ops.get("mc", {}).get("retries", 0))


def collapsed(r):
    """``{label: (queue peak, retries)}`` of the unprotected arms whose
    queue peak or retries exceed five times the protected arm's."""
    peak, retries = queue_and_retries(flagship(r))
    arms = {label: queue_and_retries(report)
            for label, report in r["flashcrowd"]["arms"] if label != FLAGSHIP}
    return {label: (arm_peak, arm_retries)
            for label, (arm_peak, arm_retries) in arms.items()
            if arm_peak > 5 * max(1, peak) or arm_retries > 5 * (retries + 1)}


def overload_collapse_measure(r):
    peak, retries = queue_and_retries(flagship(r))
    return ("; ".join(f"{label} q peak {arm_peak}, {arm_retries} retries"
                      for label, (arm_peak, arm_retries)
                      in collapsed(r).items())
            or "none") + f" (protected: {peak}, {retries})"


def imbalance(report):
    return {name: row["balance"]
            for name, row in report.net_conservation.items()
            if row["balance"] != 0}


def admission_sheds(report):
    return sum(sum(per.values())
               for per in report.admission.get("shed", {}).values())


def overload_conservation_measure(r):
    report = r["chaos"]
    return (f"imbalance {imbalance(report) or 'none'}; sheds: fabric "
            f"{overload_sheds(report)}, admission {admission_sheds(report)}")


def overload_conservation_holds(r):
    report = r["chaos"]
    return (not imbalance(report)
            and overload_sheds(report) == admission_sheds(report))


#: stages and outcomes the tracecheck arms must observe between them
REQUIRED_STAGES = ("net_in", "nic_ring", "sched_queue", "service",
                   "net_out")
REQUIRED_OUTCOMES = ("done", "shed", "drop")


def done_flights(report):
    return sum(per.get("done", 0) for per in report.flight_counts.values())


def stage_delta(report):
    return sum(abs(summary["stage_sum_ns"] - summary["total_sum_ns"])
               for summary in report.latency_stages.values())


def tracecheck_audit_measure(r):
    reports = [report for _, report in r["arms"]]
    violations = sum(len(report.flight_audit) for report in reports)
    return (f"{len(reports)} arms: {violations} audit violations, stage "
            f"delta {sum(stage_delta(report) for report in reports)} ns, "
            f"≥ {min(done_flights(report) for report in reports)} "
            f"completed flights each")


def tracecheck_audit_holds(r):
    return all(not report.flight_audit
               and all(summary["stage_sum_ns"] == summary["total_sum_ns"]
                       for summary in report.latency_stages.values())
               and done_flights(report) > 0
               for _, report in r["arms"])


def seen_stages(r):
    return {stage for _, report in r["arms"]
            for summary in report.latency_stages.values()
            for stage in summary["stages"]}


def seen_outcomes(r):
    return {outcome for _, report in r["arms"]
            for per in report.flight_counts.values() for outcome in per}


def tracecheck_coverage_measure(r):
    return (f"outcomes {', '.join(sorted(seen_outcomes(r)))}; stages "
            f"{', '.join(sorted(seen_stages(r)))}")


def tracecheck_coverage_holds(r):
    return (set(REQUIRED_STAGES) <= seen_stages(r)
            and set(REQUIRED_OUTCOMES) <= seen_outcomes(r))


def fleet_p99(r, label):
    return dict(r["skew_arms"])[label].p99_us()


def fleet_measure(first, second):
    return lambda r: (f"P99 {latency(fleet_p99(r, first))} vs "
                      f"{latency(fleet_p99(r, second))}")


def fleet_holds(first, second):
    return lambda r: fleet_p99(r, first) < fleet_p99(r, second)


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
    Claim("sensitivity", "ablations",
          "Switch-cost sensitivity: VESSEL's efficiency edge needs a "
          "switch under 2.2 µs; its latency edge outlasts twice that "
          "crossover",
          sensitivity_measure, sensitivity_holds, "not in the paper"),
    Claim("chaos", "chaos",
          "Chaos: Uintr drops and delays, a uThread crash, a rogue thread "
          "and a stalled scheduler at once leave nothing uncontained (§4.3)",
          lambda r: contained(r["full_chaos"]),
          lambda r: not r["full_chaos"].uncontained,
          "not in the paper", required=True),
    Claim("net-tail", "net",
          "Net: client-observed P99 is positive and at least the "
          "server-side P99 at every load point",
          net_tail_measure, net_tail_holds, "not in the paper",
          required=True),
    Claim("net-lossy", "net",
          "Net: a lossy link injects packet faults, clients retry, and "
          "nothing escapes containment",
          lambda r: (f"{contained(r['lossy'])}, "
                     f"{r['lossy'].net_ops['memcached']['retries']} "
                     f"retries"),
          net_lossy_holds, "not in the paper", required=True),
    Claim("policies", "policies",
          "Policy zoo: SJF costs hi's P999, trust-group cookies force idle "
          "cores, strict priority helps hi's P99 at lo's P999",
          policies_measure, policies_holds, "not in the paper"),
    Claim("churn", "churn",
          "Churn: tenants turn over (≥ 10 created, created − destroyed = "
          "active) and teardown leaks nothing (§5.1)",
          churn_measure, churn_holds, "not in the paper", required=True),
    Claim("oversub", "oversub",
          "Oversubscription: admission holds every queue at its watermark; "
          "unprotected queues never drain and their worst P99 is far above",
          oversub_measure, oversub_holds, "not in the paper"),
    Claim("overload-slo", "overload",
          f"Overload: the protected arm holds admitted client P99 within "
          f"the {SLO_P99_US:.0f} µs SLO through a 10× spike, shedding the "
          f"excess",
          lambda r: (f"P99 {flagship(r).client_p99_us('mc'):.1f} µs, "
                     f"{overload_sheds(flagship(r))} shed"),
          overload_slo_holds, "not in the paper", required=True),
    Claim("overload-collapse", "overload",
          "Overload: an unprotected arm collapses under the same trace "
          "(queue peak or retries over 5× the protected arm's)",
          overload_collapse_measure, lambda r: bool(collapsed(r)),
          "not in the paper", required=True),
    Claim("overload-chaos", "overload",
          "Overload + chaos: Uintr drops and packet delays through the "
          "spike fire and stay contained",
          lambda r: contained(r["chaos"]),
          lambda r: injected(r["chaos"]) > 0 and not r["chaos"].uncontained,
          "not in the paper", required=True),
    Claim("overload-conservation", "overload",
          "Overload + chaos: offered = completed + losses + in flight for "
          "every app, and fabric and admission count the same sheds",
          overload_conservation_measure, overload_conservation_holds,
          "not in the paper", required=True),
    Claim("tracecheck-audit", "tracecheck",
          "Trace audit: every arm's flight audit is clean, stage sums "
          "telescope to measured latency exactly, and completions are "
          "recorded",
          tracecheck_audit_measure, tracecheck_audit_holds,
          "not in the paper", required=True),
    Claim("tracecheck-coverage", "tracecheck",
          "Trace coverage: the arms see done, shed and drop flights and "
          "the net_in, nic_ring, sched_queue, service and net_out stages",
          tracecheck_coverage_measure, tracecheck_coverage_holds,
          "not in the paper", required=True),
    Claim("cluster-least-loaded", "cluster",
          "Fleet: least-loaded placement beats round-robin under hot-key "
          "skew",
          fleet_measure("least-loaded", "round-robin"),
          fleet_holds("least-loaded", "round-robin"),
          "not in the paper", required=True),
    Claim("cluster-coordinator", "cluster",
          "Fleet: least-loaded plus the coordinator beats round-robin "
          "under skew",
          fleet_measure("ll+coordinator", "round-robin"),
          fleet_holds("ll+coordinator", "round-robin"),
          "not in the paper", required=True),
    Claim("cluster-harvest", "cluster",
          "Fleet: harvesting best-effort cores beats migration alone",
          fleet_measure("ll+coordinator", "least-loaded"),
          fleet_holds("ll+coordinator", "least-loaded"),
          "not in the paper", required=True),
    Claim("cluster-capacity", "cluster",
          f"Fleet: a VESSEL fleet sustains more load within a "
          f"{FLEET_SLO_US:.0f} µs P99 SLO than a Caladan fleet",
          lambda r: (f"{sustained_load(r, 'vessel'):.2f} vs "
                     f"{sustained_load(r, 'caladan'):.2f} of nominal"),
          lambda r: sustained_load(r, "vessel") > sustained_load(r, "caladan"),
          "not in the paper", required=True),
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
    pytest.param(claim, id=claim.id, marks=marks(claim.experiment))
    for claim in CLAIMS])
def test_claim_row_matches_scoreboard(claim):
    r = results(claim.experiment)
    assert claim.holds(r) or not claim.required, claim.measure(r)
    assert scoreboard()[CLAIMS.index(claim)] == claim.row(r)


if __name__ == "__main__":
    # Rewrite the scoreboard: PYTHONPATH=src python -m tests.test_claims
    with open(DOC, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    first, end = scoreboard_bounds(lines)
    lines[first:end] = [claim.row(results(claim.experiment))
                        for claim in CLAIMS]
    with open(DOC, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
