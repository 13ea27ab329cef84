"""Guard: client timeouts ride one timer lane per machine instead of
allocating an :class:`~repro.sim.engine.Event` per transmit.

Every attempt arms a timeout that is almost always cancelled (the
response, an observed drop or a shed comes first).  A networked run with
the hardened client config, admission and packet faults must therefore
construct the same handful of Events however many requests it sends.
"""

from dataclasses import replace

from repro.experiments import flashcrowd
from repro.experiments.common import ExperimentConfig, run_colocation_full
from repro.faults.plan import FaultPlan
from repro.sim import engine
from repro.sim.units import US


def _run(monkeypatch, sim_ms: int):
    made = []
    original = engine.Event.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args[2] if len(args) > 2 else kwargs.get("fn"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(engine.Event, "__init__", counting_init)
    # A 5 us timeout is short enough that some attempts time out and
    # retransmit, so the lane's timers fire as well as cancel.
    net = replace(flashcrowd.hardened_net(None), timeout_ns=5 * US)
    cfg = ExperimentConfig(seed=11, sim_ms=sim_ms, warmup_ms=1,
                           num_workers=4, net=net)
    plan = (FaultPlan(seed=11).drop_packets(0.02)
            .delay_packets(2 * US, probability=0.05))
    _, _, fabric = run_colocation_full(
        "vessel", cfg, [("memcached", "mc", 2.0)], b_specs=("linpack",),
        admission=flashcrowd.admission_for(cfg), fault_plan=plan)
    monkeypatch.undo()
    return len(made), fabric


def test_event_count_does_not_grow_with_requests(monkeypatch):
    short_events, short = _run(monkeypatch, 2)
    long_events, long = _run(monkeypatch, 5)
    # The runs did the work a per-transmit Event would show up in:
    # thousands of attempts, with drops, timeouts and retries.
    stats = long.stats["mc"]
    assert stats["offered"] > 3 * short.stats["mc"]["offered"] > 5_000
    assert stats["drops_observed"] > 100
    assert stats["timeouts"] > 100
    assert stats["retries"] > 300
    assert stats["dup_responses"] > 0
    # Per-core handles, the scan, warm-up marks and one first tick per
    # client workload: the same set for both lengths.
    assert long_events == short_events < 40
