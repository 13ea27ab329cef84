"""Table 1: core reallocation latency distribution."""

import pytest

from repro.experiments import tab1_context_switch as exp
from repro.experiments.common import ExperimentConfig
from repro.obs.ledger import OpLedger


@pytest.mark.benchmark(group="table1")
def test_tab1_context_switch(benchmark, record_output):
    cfg = ExperimentConfig()

    def run():
        with record_output():
            return exp.main(cfg)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    vessel, caladan = results["vessel"], results["caladan"]

    # Paper: VESSEL 0.161 us avg / 0.706 us P999.
    assert vessel["avg_us"] == pytest.approx(0.161, abs=0.015)
    assert 0.4 <= vessel["p999_us"] <= 1.1
    # Paper: Caladan 2.103 us avg / 5.461 us P999.
    assert caladan["avg_us"] == pytest.approx(2.103, abs=0.12)
    assert 4.5 <= caladan["p999_us"] <= 6.5
    # The headline ratio: >10x cheaper switches.
    assert caladan["avg_us"] / vessel["avg_us"] > 10


def test_tab1_ledger_accounts_for_every_switch_nanosecond():
    """Op-breakdown regression check: the ledger's per-op charges for the
    VESSEL park-switch path must sum exactly to the end-to-end switch
    costs — no unattributed nanoseconds may appear in Table 1."""
    cfg = ExperimentConfig()
    ledger = OpLedger()
    iterations = 2_000
    samples = exp.measure_vessel(cfg, iterations, ledger=ledger)

    switch_ops = ("uctx_save", "callgate_enter", "runtime_queue",
                  "uctx_restore", "callgate_exit", "switch_noise",
                  "switch_jitter")
    per_op = {op: ledger.total_ns(domain="uproc", op=op)
              for op in switch_ops}
    assert sum(per_op.values()) == sum(samples)
    # Every constituent op was charged once per switch.
    counts = ledger.op_counts("uproc")
    for op in switch_ops:
        assert counts[op] == iterations
    # Park switches never pay the preemption path.
    assert "uiret" not in counts
