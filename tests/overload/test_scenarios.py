"""Scenario suite: determinism, --jobs equality, faults x overload.

These run the real scenario entry points at tiny scale, so they cover
the full wiring (admission + trace + churn + chaos through
``run_colocation``) rather than isolated units.
"""

from repro.experiments import churn, flashcrowd, overload_suite, oversub
from repro.experiments.common import ExperimentConfig
from tests.fingerprint import report_fingerprint


def tiny(seed=42, **overrides):
    cfg = ExperimentConfig(num_workers=2, sim_ms=3, warmup_ms=1, seed=seed)
    return cfg.scaled(**overrides) if overrides else cfg


def _arms_fingerprint(results):
    return report_fingerprint(report for _, report in results["arms"])


def test_churn_deterministic_and_leak_free():
    results = churn.run(tiny())
    churned = results["churned"]
    snap = churned.churn
    assert snap["created"] > 0
    assert snap["created"] - snap["destroyed"] == snap["active"]
    assert churned.uncontained == []
    # The long-lived tenant kept serving through the turnover.
    assert churned.completed.get("resident", 0) > 0
    assert report_fingerprint(results.values()) == report_fingerprint(
        churn.run(tiny()).values())


def test_churn_jobs_equality():
    serial = churn.run(tiny())
    fanned = churn.run(tiny(jobs=2))
    assert report_fingerprint(serial.values()) \
        == report_fingerprint(fanned.values())


def test_flashcrowd_protected_arm_sheds_and_stays_bounded():
    results = flashcrowd.run(tiny())
    arms = dict(results["arms"])
    flagship = arms[flashcrowd.FLAGSHIP]
    plain = arms["vessel"]
    assert flagship.net_ops["mc"]["sheds"] > 0
    assert plain.net_ops["mc"]["sheds"] == 0
    # Admission caps the protected queue below the unprotected peak.
    assert flagship.queue_peak["mc"] < plain.queue_peak["mc"]


def test_flashcrowd_jobs_equality():
    serial = flashcrowd.run(tiny())
    fanned = flashcrowd.run(tiny(jobs=2))
    assert _arms_fingerprint(serial) == _arms_fingerprint(fanned)


def test_oversub_admission_bounds_queues():
    results = oversub.run(tiny())
    by_label = {(factor, protected): report
                for (factor, tenants, protected), report
                in results["arms"]}
    for factor in oversub.FACTORS:
        worst_raw = max(by_label[(factor, False)].queue_peak.values())
        worst_adm = max(by_label[(factor, True)].queue_peak.values())
        assert worst_adm <= oversub.ADMISSION.max_queue_depth
        assert worst_adm < worst_raw


def test_oversub_deterministic():
    assert _arms_fingerprint(oversub.run(tiny())) \
        == _arms_fingerprint(oversub.run(tiny()))


def test_chaos_overload_contained_and_conserved():
    """Uintr drops + packet delays during the spike: the audit must be
    clean and the request-conservation identity exact."""
    report = overload_suite.chaos_run(tiny())
    assert sum(report.fault_injected.values()) > 0
    assert report.uncontained == []
    for name, row in report.net_conservation.items():
        assert row["balance"] == 0, (name, row)
    # Shed accounting agrees across the fabric and admission layers.
    fabric_sheds = report.net_ops["mc"]["sheds"]
    admission_sheds = sum(sum(per.values())
                          for per in report.admission["shed"].values())
    assert fabric_sheds == admission_sheds
    assert fabric_sheds > 0


def test_chaos_run_deterministic():
    first = overload_suite.chaos_run(tiny())
    second = overload_suite.chaos_run(tiny())
    assert report_fingerprint([first]) == report_fingerprint([second])
