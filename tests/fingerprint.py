"""Whole-report fingerprints for the determinism tests.

Two runs are the same run exactly when every field of their
:class:`~repro.sched.base.SystemReport` is equal; these helpers turn a
report into comparable JSON.
"""

import json
from dataclasses import fields
from typing import Dict, Iterable

from repro.sched.base import SystemReport


def report_fields(report: SystemReport) -> Dict:
    """Every :class:`SystemReport` field as a JSON-ready dict, latency
    histograms through their ``__getstate__``."""
    out = {}
    for spec in fields(report):
        value = getattr(report, spec.name)
        if spec.name in ("latency_hist", "client_hist"):
            value = {name: hist.__getstate__()
                     for name, hist in value.items()}
        out[spec.name] = value
    return out


def report_fingerprint(reports: Iterable[SystemReport]) -> str:
    """Sorted-key JSON of every field of ``reports``: two runs are the
    same run exactly when their fingerprints are equal."""
    return json.dumps([report_fields(report) for report in reports],
                      sort_keys=True)
