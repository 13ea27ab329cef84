"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError


def test_starts_at_time_zero(sim):
    assert sim.now == 0


def test_after_fires_at_right_time(sim):
    seen = []
    sim.after(100, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [100]


def test_at_fires_at_absolute_time(sim):
    seen = []
    sim.at(250, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [250]


def test_events_fire_in_time_order(sim):
    seen = []
    sim.after(300, lambda: seen.append(3))
    sim.after(100, lambda: seen.append(1))
    sim.after(200, lambda: seen.append(2))
    sim.run()
    assert seen == [1, 2, 3]


def test_same_time_events_fire_in_scheduling_order(sim):
    seen = []
    for i in range(10):
        sim.at(50, lambda i=i: seen.append(i))
    sim.run()
    assert seen == list(range(10))


def test_cancelled_event_does_not_fire(sim):
    seen = []
    event = sim.after(100, lambda: seen.append("no"))
    event.cancel()
    sim.run()
    assert seen == []
    assert not event.alive


def test_cancel_is_idempotent(sim):
    event = sim.after(100, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_cannot_schedule_in_the_past(sim):
    sim.after(100, lambda: None)
    sim.run()
    assert sim.now == 100
    with pytest.raises(SimulationError):
        sim.at(50, lambda: None)


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.after(-1, lambda: None)


def test_run_until_advances_clock_to_until(sim):
    sim.after(10, lambda: None)
    sim.run(until=1000)
    assert sim.now == 1000


def test_run_until_does_not_fire_later_events(sim):
    seen = []
    sim.after(2000, lambda: seen.append("late"))
    sim.run(until=1000)
    assert seen == []
    assert sim.pending() == 1


def test_resume_after_run_until(sim):
    seen = []
    sim.after(2000, lambda: seen.append(sim.now))
    sim.run(until=1000)
    sim.run(until=3000)
    assert seen == [2000]


def test_events_scheduled_during_run_fire(sim):
    seen = []

    def first():
        sim.after(50, lambda: seen.append(sim.now))

    sim.after(100, first)
    sim.run()
    assert seen == [150]


def test_stop_halts_run(sim):
    seen = []
    sim.after(10, lambda: (seen.append(1), sim.stop()))
    sim.after(20, lambda: seen.append(2))
    sim.run()
    assert seen == [1]
    assert sim.pending() == 1


def test_step_returns_false_when_empty(sim):
    assert sim.step() is False


def test_step_fires_one_event(sim):
    seen = []
    sim.after(5, lambda: seen.append("a"))
    sim.after(6, lambda: seen.append("b"))
    assert sim.step() is True
    assert seen == ["a"]


def test_peek_returns_next_live_time(sim):
    event = sim.after(100, lambda: None)
    sim.after(200, lambda: None)
    assert sim.peek() == 100
    event.cancel()
    assert sim.peek() == 200


def test_peek_empty_returns_none(sim):
    assert sim.peek() is None


def test_events_fired_counter(sim):
    for i in range(7):
        sim.after(i + 1, lambda: None)
    sim.run()
    assert sim.events_fired == 7


def test_run_not_reentrant(sim):
    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.after(1, nested)
    sim.run()


def test_event_args_passed(sim):
    seen = []
    sim.after(1, lambda a, b: seen.append((a, b)), 1, "x")
    sim.run()
    assert seen == [(1, "x")]


def test_many_events_heap_integrity(sim):
    import random
    rng = random.Random(7)
    times = [rng.randrange(1, 100000) for _ in range(2000)]
    seen = []
    for t in times:
        sim.at(t, lambda t=t: seen.append(t))
    sim.run()
    assert seen == sorted(times)


# ----------------------------------------------------------------------
# post(): the fire-and-forget fast path
# ----------------------------------------------------------------------
def test_post_fires_at_right_time(sim):
    seen = []
    sim.post(100, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [100]


def test_post_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.post(-1, lambda: None)


def test_post_args_passed(sim):
    seen = []
    sim.post(1, lambda a, b: seen.append((a, b)), 3, "y")
    sim.run()
    assert seen == [(3, "y")]


def test_post_and_after_share_one_ordering(sim):
    """Same-timestamp post() and after() events fire in schedule order."""
    seen = []
    sim.after(50, lambda: seen.append("a1"))
    sim.post(50, lambda: seen.append("p1"))
    sim.after(50, lambda: seen.append("a2"))
    sim.post(50, lambda: seen.append("p2"))
    sim.run()
    assert seen == ["a1", "p1", "a2", "p2"]


def test_post_counts_in_pending_and_events_fired(sim):
    sim.post(5, lambda: None)
    sim.after(6, lambda: None)
    assert sim.pending() == 2
    sim.run()
    assert sim.pending() == 0
    assert sim.events_fired == 2


def test_post_respects_run_until(sim):
    seen = []
    sim.post(2000, lambda: seen.append("late"))
    sim.run(until=1000)
    assert seen == []
    assert sim.pending() == 1
    sim.run()
    assert seen == ["late"]


def test_step_fires_post_entries(sim):
    seen = []
    sim.post(5, lambda: seen.append("p"))
    assert sim.step() is True
    assert seen == ["p"]


# ----------------------------------------------------------------------
# Dead-entry compaction (regression: a simulator reused across
# run(until=...) windows used to accumulate cancelled events scheduled
# past `until` in the heap without bound)
# ----------------------------------------------------------------------
def test_cancelled_events_past_until_do_not_accumulate(sim):
    window = 1_000
    for i in range(200):
        start = i * window
        # A completion event far past this window, always cancelled --
        # the scheduler-churn pattern that used to leak heap entries.
        event = sim.at(start + 10 * window, lambda: None)
        sim.at(start + 1, lambda: None)
        sim.run(until=(i + 1) * window)
        event.cancel()
    assert sim.pending() == 0
    # The heap may keep a bounded number of dead entries (lazy deletion)
    # but must not hold all 200.
    assert len(sim._heap) <= 130


def test_compaction_preserves_order_and_liveness(sim):
    import random
    rng = random.Random(11)
    seen = []
    events = []
    for _ in range(3000):
        t = rng.randrange(1, 1_000_000)
        events.append(sim.at(t, lambda t=t: seen.append(t)))
    kept = []
    for i, event in enumerate(events):
        if i % 3 == 0:
            event.cancel()  # triggers compaction along the way
        else:
            kept.append(event.time)
    sim.run()
    assert seen == sorted(kept)


def test_cancel_storm_inside_handler_keeps_running_loop_valid(sim):
    """_compact() must mutate the heap in place: run() holds a local
    reference across callbacks."""
    seen = []
    victims = [sim.at(10_000 + i, lambda: seen.append("victim"))
               for i in range(300)]

    def massacre():
        for event in victims:
            event.cancel()
        seen.append("massacre")

    sim.after(1, massacre)
    sim.after(20_000, lambda: seen.append("survivor"))
    sim.run()
    assert seen == ["massacre", "survivor"]


# ----------------------------------------------------------------------
# Re-armable handles (handle() + rearm())
# ----------------------------------------------------------------------
def test_handle_starts_unarmed(sim):
    seen = []
    handle = sim.handle(seen.append, "x")
    assert not handle.alive
    handle.cancel()  # a no-op on an unarmed handle
    sim.run()
    assert seen == [] and sim.pending() == 0


def test_rearm_fires_with_the_handle_args(sim):
    seen = []
    handle = sim.handle(lambda a: seen.append((sim.now, a)), "x")
    sim.rearm(handle, 40)
    assert handle.alive and handle.time == 40
    assert sim.pending() == 1
    sim.run()
    sim.rearm(handle, 10)
    sim.run()
    assert seen == [(40, "x"), (50, "x")]
    assert sim.events_fired == 2


def test_rearming_a_pending_handle_raises(sim):
    handle = sim.handle(lambda: None)
    sim.rearm(handle, 10)
    with pytest.raises(SimulationError):
        sim.rearm(handle, 20)
    assert sim.pending() == 1


def test_rearm_negative_delay_rejected(sim):
    handle = sim.handle(lambda: None)
    with pytest.raises(SimulationError):
        sim.rearm(handle, -1)
    assert not handle.alive


def test_rearm_takes_its_seq_where_after_would(sim):
    """Same-time ties break by arming order, as for fresh Events."""
    seen = []
    handle = sim.handle(seen.append, "handle")
    sim.after(50, seen.append, "first")
    sim.rearm(handle, 50)
    sim.post(50, seen.append, "last")
    sim.run()
    assert seen == ["first", "handle", "last"]


def test_stale_entry_of_a_rearmed_handle_never_fires(sim):
    seen = []
    handle = sim.handle(lambda: seen.append(sim.now))
    sim.rearm(handle, 100)
    handle.cancel()
    sim.rearm(handle, 300)
    # The cancelled arming's entry is still in the heap, counted dead.
    assert len(sim._heap) == 2 and sim._dead == 1
    assert sim.pending() == 1
    assert sim.peek() == 300
    sim.run()
    assert seen == [300]
    assert sim.events_fired == 1
    assert sim._dead == 0 and not sim._heap


def test_stale_entry_skipped_by_step(sim):
    seen = []
    handle = sim.handle(lambda: seen.append(sim.now))
    sim.rearm(handle, 5)
    handle.cancel()
    sim.rearm(handle, 7)
    assert sim.step() is True
    assert seen == [7]
    assert sim.step() is False


def test_stale_entry_is_earlier_than_the_live_one(sim):
    """Re-arming earlier than the cancelled arming: the live entry fires
    first and the stale one, popped later, is dropped."""
    seen = []
    handle = sim.handle(lambda: seen.append(sim.now))
    sim.rearm(handle, 500)
    handle.cancel()
    sim.rearm(handle, 100)
    sim.run()
    assert seen == [100]
    sim.rearm(handle, 1000)  # the stale t=500 entry was dropped, not fired
    sim.run()
    assert seen == [100, 1100]


def test_cancel_inside_own_callback(sim):
    seen = []

    def fire():
        seen.append(sim.now)
        handle.cancel()  # already disarmed: a no-op
        sim.rearm(handle, 10)
        handle.cancel()  # cancels the arming just made

    handle = sim.handle(fire)
    sim.rearm(handle, 5)
    sim.run()
    assert seen == [5]
    assert sim.pending() == 0 and sim.events_fired == 1


def test_rearm_inside_own_callback_chains(sim):
    seen = []

    def tick():
        seen.append(sim.now)
        if len(seen) < 4:
            sim.rearm(handle, 10)

    handle = sim.handle(tick)
    sim.rearm(handle, 0)
    sim.run()
    assert seen == [0, 10, 20, 30]


def test_compaction_drops_stale_entries_of_rearmed_handles(sim):
    seen = []
    handle = sim.handle(lambda: seen.append(sim.now))
    for i in range(500):
        sim.rearm(handle, 1_000 + i)
        handle.cancel()
    sim.rearm(handle, 5)
    # Bounded by compaction: 2x live + the threshold.
    assert len(sim._heap) <= 2 * sim.pending() + 64
    sim.run()
    assert seen == [5]
    assert sim.events_fired == 1
