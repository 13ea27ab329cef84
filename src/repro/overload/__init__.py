"""Overload tolerance: admission control, SLO autoscaling, load shaping.

The paper's claim is that VESSEL shines *under pressure*; this package
supplies the pressure and the survival machinery.  Three cooperating
pieces, each usable alone:

* :mod:`repro.overload.admission` — per-app load shedding at the
  NIC-ingress and ``system.submit`` boundaries (queue-depth and
  oldest-arrival watermarks, ``shed:*`` ledger ops, rejections flow
  back to clients through ``repro.net``);
* :mod:`repro.overload.autoscaler` — an SLO-driven core autoscaler
  expressed as a :class:`~repro.sched.policy.SchedPolicy` subclass, so
  it composes with the policy zoo and reuses the decision API;
* :mod:`repro.overload.trace` / :mod:`repro.overload.churn` — diurnal
  flash-crowd load shaping and continuous tenant create/destroy churn,
  both deterministic under the run's seed.

The scenario suite lives in ``repro.experiments`` (``churn``,
``oversub``, ``overload``, whose first table is ``flashcrowd``'s).
"""

from repro.overload.admission import AdmissionConfig, AdmissionControl
from repro.overload.autoscaler import SloAutoscalePolicy
from repro.overload.churn import ChurnConfig, ChurnDriver
from repro.overload.trace import (
    LoadPhase,
    LoadShaper,
    LoadTrace,
    flash_crowd_trace,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionControl",
    "SloAutoscalePolicy",
    "ChurnConfig",
    "ChurnDriver",
    "LoadPhase",
    "LoadShaper",
    "LoadTrace",
    "flash_crowd_trace",
]
