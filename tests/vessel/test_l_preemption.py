"""§4.4 head-of-line blocking: long requests must not wreck short ones.

Memcached (~1 µs requests) shares ONE core with Silo (20-280 µs
requests).  Without mid-request preemption a single Silo transaction
blocks every queued memcached request for up to 280 µs; VESSEL's
scheduler preempts the long request after its quantum (a 0.36 µs
Uintr-priced switch), so memcached's tail stays bounded.
"""


from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import MS
from repro.sim.stats import summarize_ns
from repro.hardware.machine import Machine
from repro.hardware.timing import CostModel
from repro.sched.policy import make_policy
from repro.vessel.scheduler import VesselSystem
from repro.workloads.base import OpenLoopSource
from repro.workloads.memcached import memcached_app, UsrServiceSampler
from repro.workloads.silo import silo_app, silo_service_sampler


def build(l_preempt_quantum_ns, sim_ms=40, seed=5):
    sim = Simulator()
    machine = Machine(sim, CostModel(), 2)  # one worker core
    rngs = RngStreams(seed)
    system = VesselSystem(sim, machine, rngs,
                          worker_cores=machine.cores[1:],
                          policy=make_policy(
                              "default",
                              l_preempt_quantum_ns=l_preempt_quantum_ns))
    mc = memcached_app()
    db = silo_app()
    system.add_app(mc)
    system.add_app(db)
    system.start()
    OpenLoopSource(sim, mc, system.submit, 0.25,
                   UsrServiceSampler(rngs.stream("mc-svc")),
                   rngs.stream("mc-arr"))
    OpenLoopSource(sim, db, system.submit, 0.012,
                   silo_service_sampler(rngs.stream("db-svc")),
                   rngs.stream("db-arr"))
    sim.run(until=sim_ms * MS)
    return system, mc, db


def test_preemption_bounds_memcached_tail():
    system, mc, db = build(l_preempt_quantum_ns=20_000)
    # Without preemption a 280 us Silo request would show up directly in
    # memcached's P999; with it the tail is bounded near the quantum.
    assert summarize_ns(mc.latency.samples)["p999_us"] < 80
    assert system.preemptions > 0
    # Silo still completes (preempted requests resume).
    assert db.completed > 0


def test_without_preemption_tail_is_unbounded():
    _, mc, _ = build(l_preempt_quantum_ns=10**12)
    assert summarize_ns(mc.latency.samples)["p999_us"] > 100


def test_preemption_preserves_silo_work():
    """Suspend/resume conserves the long requests' service time."""
    system, mc, db = build(l_preempt_quantum_ns=20_000)
    # Silo latency includes its own service plus preemption slices, but
    # every request eventually finishes: no unbounded backlog.
    assert len(db.queue) < 12
    # >= its median service
    assert summarize_ns(db.latency.samples)["p50_us"] > 20


def test_short_requests_never_preempted():
    system, mc, db = build(l_preempt_quantum_ns=20_000)
    # A ~1 us memcached request can never hit the 20 us quantum, so the
    # preemption count is bounded by silo's (resumable) long requests.
    assert system.preemptions < 4 * (db.completed + len(db.queue) + 1) \
        + mc.completed * 0.01 + 50
