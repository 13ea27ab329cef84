"""Tests for the arena allocator, including hypothesis invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.uprocess.allocator import (
    OutOfMemoryError,
    RegionAllocator,
    round_to_class,
)

BASE = 0x10_0000
SIZE = 1 << 20


def make():
    return RegionAllocator(BASE, SIZE, name="test")


def test_round_to_class_small():
    assert round_to_class(1) == 16
    assert round_to_class(17) == 32
    assert round_to_class(4096) == 4096


def test_round_to_class_large_page_rounds():
    assert round_to_class(4097) == 8192
    assert round_to_class(10_000) == 12288


def test_round_to_class_rejects_nonpositive():
    with pytest.raises(ValueError):
        round_to_class(0)


def test_alloc_within_range():
    arena = make()
    addr = arena.alloc(100)
    assert BASE <= addr < BASE + SIZE
    assert arena.owns(addr)
    assert SIZE - arena.free_bytes() == round_to_class(100) == 112


def test_allocations_do_not_overlap():
    arena = make()
    blocks = [(arena.alloc(200), round_to_class(200)) for _ in range(100)]
    spans = sorted(blocks)
    for (a_start, a_size), (b_start, _) in zip(spans, spans[1:]):
        assert a_start + a_size <= b_start


def test_free_and_reuse():
    arena = make()
    addr = arena.alloc(1000)
    arena.free(addr)
    assert not arena.owns(addr)
    assert arena.alloc(1000) == addr  # first fit reuses


def test_double_free_rejected():
    arena = make()
    addr = arena.alloc(64)
    arena.free(addr)
    with pytest.raises(ValueError):
        arena.free(addr)


def test_free_unknown_rejected():
    with pytest.raises(ValueError):
        make().free(0xDEAD)


def test_coalescing_reassembles_arena():
    arena = make()
    addrs = [arena.alloc(4096) for _ in range(10)]
    for addr in addrs:
        arena.free(addr)
    assert arena.free_bytes() == SIZE
    assert len(arena._free) == 1  # fully coalesced


def test_out_of_memory():
    arena = RegionAllocator(0, 1024)
    arena.alloc(512)
    with pytest.raises(OutOfMemoryError):
        arena.alloc(1024)


def test_alignment_respected():
    arena = make()
    addr = arena.alloc(100, align=256)
    assert addr % 256 == 0


def test_bad_alignment_rejected():
    with pytest.raises(ValueError):
        make().alloc(16, align=3)


def test_accounting_conserved():
    arena = make()
    addrs = [arena.alloc(100) for _ in range(5)]
    assert arena.free_bytes() == SIZE - 5 * round_to_class(100)
    arena.check_invariants()
    arena.free(addrs[2])
    assert arena.free_bytes() == SIZE - 4 * round_to_class(100)
    arena.check_invariants()


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(min_value=1, max_value=8192)),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=100)),
    ),
    min_size=1, max_size=200,
))
def test_random_workload_invariants(ops):
    arena = RegionAllocator(BASE, SIZE)
    live = []
    for op, value in ops:
        if op == "alloc":
            try:
                live.append(arena.alloc(value))
            except OutOfMemoryError:
                pass
        elif live:
            arena.free(live.pop(value % len(live)))
        arena.check_invariants()
    for addr in live:
        arena.free(addr)
    arena.check_invariants()
    assert arena.free_bytes() == SIZE
