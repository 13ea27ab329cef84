"""Policy zoo: alternative scheduling policies over the VESSEL mechanism.

The mechanism/policy split (``repro.sched.policy``) means every policy
here runs over the *same* Uintr/call-gate switching and containment
machinery, with identical per-op costs — the comparison isolates pure
decision-making.  Two memcached instances (one nominated "hi", one "lo")
colocate with linpack; each policy trades their tails against BE
throughput differently:

* ``default``      — the paper's FIFO + rotation (the reference point);
* ``mlfq``         — backlogged threads sink to longer, cheaper slices;
* ``sjf``          — shortest request first (mean drops, tail risk);
* ``trust-group``  — core-scheduling cookies; forced idle on SMT
  siblings buys isolation with utilization;
* ``priority``     — mc-hi strictly first (mc-lo and the B-app absorb
  the congestion).

Run with ``python -m repro policies`` (``--smoke`` for the CI-sized
version).  Same seed ⇒ same table, per policy — determinism is a policy
contract, enforced by ``tests/sched/test_zoo.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.common import (
    ExperimentConfig,
    format_table,
    l_capacity_mops,
    run_colocation_batch,
)
from repro.workloads.memcached import MEMCACHED_MEAN_SERVICE_NS

DEFAULT_LOAD = 0.75

#: (label, registry name, policy constructor kwargs)
ZOO = [
    ("default", "default", {}),
    ("mlfq", "mlfq", {}),
    ("sjf", "sjf", {}),
    ("trust-group", "trust-group", {}),
    ("priority", "priority", {"priorities": {"mc-hi": 1}}),
]


def run(cfg: Optional[ExperimentConfig] = None,
        load: float = DEFAULT_LOAD) -> Dict:
    cfg = cfg or ExperimentConfig()
    # Split the offered load across the two instances so the pair
    # together drives the machine to ``load``.
    rate = load * l_capacity_mops(cfg, MEMCACHED_MEAN_SERVICE_NS) / 2
    l_specs = [("memcached", "mc-hi", rate), ("memcached", "mc-lo", rate)]
    tasks = [(
        "vessel",
        cfg.scaled(policy=name, policy_params=params),
        dict(l_specs=l_specs, b_specs=("linpack",)),
    ) for _, name, params in ZOO]
    reports = run_colocation_batch(tasks, jobs=cfg.jobs)
    rows: List[Dict] = []
    for (label, _, _), report in zip(ZOO, reports):
        rows.append({
            "policy": label,
            "hi_p99_us": report.p99_us("mc-hi"),
            "hi_p999_us": report.p999_us("mc-hi"),
            "lo_p999_us": report.p999_us("mc-lo"),
            "be_cores": report.useful_ns.get("linpack", 0)
            / report.elapsed_ns,
            "idle_frac": report.buckets.get("idle", 0)
            / (report.elapsed_ns * report.num_worker_cores),
        })
    return {"rows": rows, "load": load}


def main(cfg: Optional[ExperimentConfig] = None) -> Dict:
    results = run(cfg)
    print(f"Policy zoo (mc-hi + mc-lo + linpack at "
          f"{results['load']:.0%} combined load; same mechanism, "
          f"same costs)")
    rows = [[r["policy"], round(r["hi_p99_us"], 1),
             round(r["hi_p999_us"], 1), round(r["lo_p999_us"], 1),
             round(r["be_cores"], 3), round(r["idle_frac"], 3)]
            for r in results["rows"]]
    print(format_table(
        ["policy", "hi P99 us", "hi P999 us", "lo P999 us",
         "BE cores", "idle frac"], rows))
    return results
