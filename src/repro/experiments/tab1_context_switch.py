"""Table 1: the latency of core reallocation.

Paper setup: "bind two single-threaded applications on the same core and
let them park() themselves repeatedly", so each measured sample is one
one-way switch between two applications.

Paper numbers (µs):

    |         | Avg.  | P50   | P90   | P99   | P999  |
    | VESSEL  | 0.161 | 0.160 | 0.162 | 0.173 | 0.706 |
    | Caladan | 2.103 | 2.063 | 2.091 | 2.420 | 5.461 |

The VESSEL path runs the functional switch per sample: CPUID_TO_TASK_MAP
and PKRU are written inline, and the call gate's entry and exit are
charged as the ``callgate_enter``/``callgate_exit`` constants (the gate's
stages and defenses are checked by ``tests/uprocess/test_callgate.py``
and ``test_attacks.py``, not run here).  Caladan's path is the
cooperative yield + IOKernel rebind.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.stats import summarize_ns
from repro.hardware.machine import Machine
from repro.obs.ledger import OpLedger
from repro.uprocess.loader import ProgramImage
from repro.uprocess.manager import Manager
from repro.uprocess.threads import UThread
from repro.experiments.common import ExperimentConfig, format_table

#: park switches per system, each one a sample
ITERATIONS = 20_000

PAPER_ROWS = {
    "vessel": {"avg_us": 0.161, "p50_us": 0.160, "p90_us": 0.162,
               "p99_us": 0.173, "p999_us": 0.706},
    "caladan": {"avg_us": 2.103, "p50_us": 2.063, "p90_us": 2.091,
                "p99_us": 2.420, "p999_us": 5.461},
}


def measure_vessel(cfg: ExperimentConfig, iterations: int,
                   ledger: Optional[OpLedger] = None) -> array:
    """Ping-pong two uProcess threads on one core via park switches.

    When ``ledger`` is supplied every switch charges its constituent
    operations into it, so the per-op rows (uctx_save, callgate_enter,
    runtime_queue, uctx_restore, callgate_exit, switch_noise,
    switch_jitter) sum exactly to the end-to-end sample costs — the
    invariant ``tests/obs/test_ledger.py`` checks.
    """
    sim = Simulator()
    machine = Machine(sim, cfg.costs, 1, ledger=ledger)
    rngs = RngStreams(cfg.seed)
    manager = Manager(costs=cfg.costs, rng=rngs.stream("switch"),
                      ledger=machine.ledger)
    domain = manager.create_domain(machine.cores)
    app_a = manager.create_uprocess(domain, ProgramImage("app-a"))
    app_b = manager.create_uprocess(domain, ProgramImage("app-b"))
    thread_a = UThread(app_a)
    thread_b = UThread(app_b)
    core = machine.cores[0]
    domain.switcher.install(core, thread_a)
    samples = array("q")
    current, other = thread_a, thread_b
    for _ in range(iterations):
        domain.switcher.park_current(core)
        cost = domain.switcher.switch(core, other, preempt=False)
        samples.append(cost)
        current, other = other, current
        # The mechanism must leave the core with the right permissions.
        assert core.pkru.value == current.uproc.pkru().value
    return samples


def measure_caladan(cfg: ExperimentConfig, iterations: int) -> array:
    """Cooperative park + IOKernel rebind, with kernel-path jitter."""
    rngs = RngStreams(cfg.seed)
    rng = rngs.stream("caladan-switch")
    costs = cfg.costs
    samples = array("q")
    for _ in range(iterations):
        cost = (costs.caladan_park_yield_ns + costs.caladan_park_switch_ns
                + costs.caladan_switch_noise_ns(rng)
                + costs.kernel_jitter_ns(rng))
        samples.append(cost)
    return samples


def run(cfg: ExperimentConfig) -> Dict[str, Dict]:
    ledger = OpLedger() if cfg.op_breakdown else None
    results = {
        "vessel": summarize_ns(measure_vessel(cfg, ITERATIONS,
                                              ledger=ledger)),
        "caladan": summarize_ns(measure_caladan(cfg, ITERATIONS)),
        "paper": PAPER_ROWS,
    }
    if ledger is not None:
        results["vessel_ledger"] = ledger
    return results


def main(cfg: ExperimentConfig = None) -> Dict[str, Dict]:
    cfg = cfg or ExperimentConfig()
    results = run(cfg)
    headers = ["system", "avg", "P50", "P90", "P99", "P999"]
    rows = []
    for name in ("vessel", "caladan"):
        measured = results[name]
        paper = PAPER_ROWS[name]
        rows.append([name] + [round(measured[k], 3) for k in
                              ("avg_us", "p50_us", "p90_us", "p99_us",
                               "p999_us")])
        rows.append([f"  (paper)"] + [paper[k] for k in
                                      ("avg_us", "p50_us", "p90_us",
                                       "p99_us", "p999_us")])
    print("Table 1: core reallocation latency (us)")
    print(format_table(headers, rows))
    ledger = results.get("vessel_ledger")
    if ledger is not None:
        print("\nVESSEL switch-path per-op breakdown (sums to the "
              "end-to-end cost above):")
        print(ledger.breakdown_table(domain="uproc"))
    return results
