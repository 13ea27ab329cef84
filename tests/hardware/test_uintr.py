"""Tests for userspace interrupts: delivery, deferral, UITT routing."""

import pytest

from repro.hardware.uintr import UintrController, VECTOR_COUNT


@pytest.fixture
def uintr(sim, costs):
    return UintrController(sim, costs)


def _wire(uintr, sender=0, receiver=1, vector=2):
    seen = []
    uintr.register_handler(receiver, lambda vec: seen.append(
        (vec, uintr.sim.now)))
    uintr.on_user_resume(receiver)
    index = uintr.register_sender(sender, receiver, vector)
    return seen, index


def _suspend(uintr, receiver=1):
    """The receiver leaves user mode: notifications are suppressed."""
    uintr.upid_of(receiver).suppressed = True


def test_delivery_to_running_receiver(uintr, sim, costs):
    seen, index = _wire(uintr)
    uintr.senduipi(0, index)
    sim.run()
    assert len(seen) == 1
    vector, when = seen[0]
    assert vector == 2
    assert when == costs.uintr_send_ns + costs.uintr_deliver_ns


def test_delivery_deferred_while_suppressed(uintr, sim):
    seen, index = _wire(uintr)
    _suspend(uintr)
    uintr.senduipi(0, index)
    sim.run()
    assert seen == []
    assert uintr.deferred == 1


def test_deferred_vector_delivered_on_resume(uintr, sim):
    seen, index = _wire(uintr)
    _suspend(uintr)
    uintr.senduipi(0, index)
    sim.run()
    uintr.on_user_resume(1)
    sim.run()
    assert [v for v, _ in seen] == [2]


def test_multiple_vectors_coalesce_in_upid(uintr, sim):
    seen = []
    uintr.register_handler(1, lambda vec: seen.append(vec))
    _suspend(uintr)
    i3 = uintr.register_sender(0, 1, 3)
    i7 = uintr.register_sender(0, 1, 7)
    uintr.senduipi(0, i3)
    uintr.senduipi(0, i7)
    uintr.on_user_resume(1)
    sim.run()
    assert sorted(seen) == [3, 7]


def test_duplicate_vector_posts_once(uintr, sim):
    seen, index = _wire(uintr)
    _suspend(uintr)
    uintr.senduipi(0, index)
    uintr.senduipi(0, index)
    uintr.on_user_resume(1)
    sim.run()
    assert len(seen) == 1  # the PIR is a bitmap


def test_unknown_uitt_index_rejected(uintr):
    _wire(uintr)
    with pytest.raises(IndexError):
        uintr.senduipi(0, 99)


def test_unknown_sender_rejected(uintr):
    with pytest.raises(IndexError):
        uintr.senduipi(42, 0)


def test_sender_registration_requires_upid(uintr):
    with pytest.raises(KeyError):
        uintr.register_sender(0, receiver_id=9, vector=1)


def test_vector_range_checked(uintr, sim):
    seen = []
    upid = uintr.register_handler(1, seen.append)
    with pytest.raises(ValueError):
        upid.post(VECTOR_COUNT)


def test_counters(uintr, sim):
    seen, index = _wire(uintr)
    uintr.senduipi(0, index)
    sim.run()
    assert uintr.sent == 1
    assert uintr.delivered == 1
    assert uintr.deferred == 0


def test_two_receivers_routed_independently(uintr, sim):
    seen_a, seen_b = [], []
    uintr.register_handler(1, lambda v: seen_a.append(v))
    uintr.register_handler(2, lambda v: seen_b.append(v))
    uintr.on_user_resume(1)
    uintr.on_user_resume(2)
    ia = uintr.register_sender(0, 1, 5)
    ib = uintr.register_sender(0, 2, 6)
    uintr.senduipi(0, ia)
    uintr.senduipi(0, ib)
    sim.run()
    assert seen_a == [5]
    assert seen_b == [6]


def test_suspend_between_post_and_delivery_defers(uintr, sim):
    seen, index = _wire(uintr)
    uintr.senduipi(0, index)
    # Suppress before the delivery event fires.
    _suspend(uintr)
    sim.run()
    assert seen == []
    uintr.on_user_resume(1)
    sim.run()
    assert len(seen) == 1


def test_pending_vectors_peeks_without_draining(uintr, sim):
    seen, index = _wire(uintr)
    _suspend(uintr)
    uintr.senduipi(0, index)
    # The vector waits in the PIR bitmap until resume drains it.
    assert uintr.upid_of(1).pending == 1 << 2
    uintr.on_user_resume(1)
    sim.run()
    assert uintr.upid_of(1).pending == 0
    assert [v for v, _ in seen] == [2]


def test_injected_drop_keeps_vector_posted(uintr, sim):
    seen, index = _wire(uintr)
    from repro.hardware.uintr import UINTR_DROP
    uintr.inject = lambda s, r, v: UINTR_DROP
    uintr.senduipi(0, index)
    sim.run()
    # The doorbell is lost but the PIR bit survives.
    assert seen == []
    assert uintr.dropped == 1
    assert uintr.upid_of(1).pending == 1 << 2


def test_retry_after_drop_delivers_posted_vector(uintr, sim):
    seen, index = _wire(uintr)
    from repro.hardware.uintr import UINTR_DROP
    dispositions = [UINTR_DROP, None]
    uintr.inject = lambda s, r, v: dispositions.pop(0)
    uintr.senduipi(0, index)
    sim.run()
    assert seen == []
    # The watchdog's retry: a second senduipi re-raises the doorbell
    # and the original posted vector gets delivered exactly once.
    uintr.senduipi(0, index)
    sim.run()
    assert [v for v, _ in seen] == [2]
    assert uintr.upid_of(1).pending == 0


def test_injected_delay_shifts_delivery(uintr, sim, costs):
    seen, index = _wire(uintr)
    uintr.inject = lambda s, r, v: 5_000
    uintr.senduipi(0, index)
    sim.run()
    assert uintr.delayed == 1
    _, when = seen[0]
    assert when == costs.uintr_send_ns + costs.uintr_deliver_ns + 5_000


def test_inject_hook_not_consulted_while_suppressed(uintr, sim):
    seen, index = _wire(uintr)
    calls = []
    uintr.inject = lambda s, r, v: calls.append((s, r, v))
    _suspend(uintr)
    uintr.senduipi(0, index)
    sim.run()
    # Suppression defers before the wire is ever touched, so there is
    # no in-flight notification for the hook to drop or delay.
    assert calls == []
    assert uintr.deferred == 1
    uintr.on_user_resume(1)
    sim.run()
    assert len(seen) == 1
