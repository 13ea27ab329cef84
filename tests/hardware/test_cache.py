"""Tests for the set-associative LRU cache."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware.cache import CacheSim


def small_cache(ways=2, sets=4, line=64):
    return CacheSim(size_bytes=ways * sets * line, ways=ways, line_bytes=line)


def test_geometry_validation():
    with pytest.raises(ValueError):
        CacheSim(size_bytes=1000, ways=3, line_bytes=64)  # not divisible
    with pytest.raises(ValueError):
        CacheSim(size_bytes=0, ways=1, line_bytes=64)


def test_first_access_misses_second_hits():
    cache = small_cache()
    assert cache.access(0x0) is False
    assert cache.access(0x0) is True


def test_same_line_different_offsets_hit():
    cache = small_cache(line=64)
    cache.access(0x100)
    assert cache.access(0x13F) is True  # same 64-byte line


def test_lru_eviction_within_set():
    cache = small_cache(ways=2, sets=1, line=64)
    cache.access(0 * 64)   # A
    cache.access(1 * 64)   # B
    cache.access(2 * 64)   # C evicts A (LRU)
    assert cache.access(1 * 64) is True    # B survived
    assert cache.access(0 * 64) is False   # A was evicted


def test_mru_update_protects_recent_line():
    cache = small_cache(ways=2, sets=1, line=64)
    cache.access(0 * 64)   # A
    cache.access(1 * 64)   # B
    cache.access(0 * 64)   # touch A -> B is now LRU
    cache.access(2 * 64)   # C evicts B
    assert cache.access(0 * 64) is True
    assert cache.access(1 * 64) is False


def test_distinct_sets_do_not_interfere():
    cache = small_cache(ways=1, sets=4, line=64)
    for set_index in range(4):
        cache.access(set_index * 64)
    for set_index in range(4):
        assert cache.access(set_index * 64) is True


def test_access_range_counts_misses():
    cache = small_cache(ways=8, sets=8, line=64)
    misses = cache.access_range(0, 64 * 5)
    assert misses == 5
    assert cache.access_range(0, 64 * 5) == 0


def test_access_range_partial_lines():
    cache = small_cache(ways=8, sets=8, line=64)
    # 96 bytes starting at offset 32 touch exactly two lines (32..127)
    assert cache.access_range(32, 96) == 2
    # one more byte spills into a third line
    assert cache.access_range(32, 97) == 1  # only line 2 is new


def test_access_range_rejects_nonpositive():
    with pytest.raises(ValueError):
        small_cache().access_range(0, 0)


def test_flush_empties_cache():
    cache = small_cache()
    cache.access(0)
    cache.flush()
    assert not any(cache._sets)
    assert cache.access(0) is False


def test_stats_by_tag():
    cache = small_cache()
    cache.access(0, tag="a")
    cache.access(0, tag="a")
    cache.access(64 * 100, tag="b")
    assert cache.stats.miss_rate("a") == pytest.approx(0.5)
    assert cache.stats.miss_rate("b") == pytest.approx(1.0)
    assert cache.stats.hits + cache.stats.misses == 3


def test_miss_rate_empty_is_zero():
    assert small_cache().stats.miss_rate() == 0.0


def test_working_set_fitting_cache_converges_to_hits():
    cache = CacheSim(64 * 1024, ways=8, line_bytes=64)
    # 32 KiB working set in a 64 KiB cache: after one pass, all hits.
    for _ in range(2):
        cache.access_range(0, 32 * 1024, tag="ws")
    hits, misses = cache.stats.by_tag["ws"]
    assert misses == 32 * 1024 // 64          # only the cold pass
    assert hits == 32 * 1024 // 64


@given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1,
                max_size=300))
def test_resident_lines_bounded_by_capacity(addresses):
    cache = small_cache(ways=2, sets=4)
    for addr in addresses:
        cache.access(addr)
    assert sum(len(ways) for ways in cache._sets) <= 2 * 4
    assert cache.stats.hits + cache.stats.misses == len(addresses)


@given(st.lists(st.integers(min_value=0, max_value=1 << 14), min_size=1,
                max_size=200))
def test_immediate_reaccess_always_hits(addresses):
    cache = small_cache(ways=4, sets=8)
    for addr in addresses:
        cache.access(addr)
        assert cache.access(addr) is True
