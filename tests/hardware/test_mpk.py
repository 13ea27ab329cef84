"""Tests for the MPK model: PKRU semantics, regions, combined checks."""

import pytest
from hypothesis import given, strategies as st

from repro.hardware.mpk import (
    AccessKind,
    AddressSpaceMap,
    MpkFault,
    PageFault,
    Permission,
    PkruRegister,
    Region,
    PKEY_COUNT,
)


# ----------------------------------------------------------------------
# PkruRegister
# ----------------------------------------------------------------------
def test_zero_pkru_allows_everything():
    pkru = PkruRegister(0)
    for pkey in range(PKEY_COUNT):
        assert pkru.allows(pkey, AccessKind.READ)
        assert pkru.allows(pkey, AccessKind.WRITE)


def test_access_disable_blocks_read_and_write():
    pkru = PkruRegister(0b01 << (2 * 3))  # AD for key 3
    assert not pkru.allows(3, AccessKind.READ)
    assert not pkru.allows(3, AccessKind.WRITE)
    assert pkru.allows(4, AccessKind.READ)


def test_write_disable_blocks_only_write():
    pkru = PkruRegister(0b10 << (2 * 5))  # WD for key 5
    assert pkru.allows(5, AccessKind.READ)
    assert not pkru.allows(5, AccessKind.WRITE)


def test_execute_never_gated_by_pkru():
    pkru = PkruRegister(PkruRegister.ALL_DENIED_EXCEPT_0)
    for pkey in range(PKEY_COUNT):
        assert pkru.allows(pkey, AccessKind.EXECUTE)


def test_all_denied_except_0_shape():
    pkru = PkruRegister(PkruRegister.ALL_DENIED_EXCEPT_0)
    assert pkru.allows(0, AccessKind.WRITE)
    for pkey in range(1, PKEY_COUNT):
        assert not pkru.allows(pkey, AccessKind.READ)


def test_build_grants_exactly_requested():
    pkru = PkruRegister.build({2: True, 7: False})
    assert pkru.allows(2, AccessKind.WRITE)
    assert pkru.allows(7, AccessKind.READ)
    assert not pkru.allows(7, AccessKind.WRITE)
    assert not pkru.allows(3, AccessKind.READ)
    assert pkru.allows(0, AccessKind.WRITE)  # key 0 always open


def test_wrpkru_rdpkru_roundtrip():
    pkru = PkruRegister()
    pkru.wrpkru(0xDEAD)
    assert pkru.rdpkru() == 0xDEAD


def test_pkru_value_range_checked():
    with pytest.raises(ValueError):
        PkruRegister(1 << 32)
    with pytest.raises(ValueError):
        PkruRegister().wrpkru(-1)


def test_pkey_range_checked():
    with pytest.raises(ValueError):
        PkruRegister(0).allows(16, AccessKind.READ)


def test_pkru_equality_and_copy():
    a = PkruRegister(123)
    b = a.copy()
    assert a == b
    b.wrpkru(5)
    assert a != b
    assert a.value == 123


@given(st.dictionaries(st.integers(min_value=1, max_value=15), st.booleans(),
                       max_size=15))
def test_build_matches_spec_for_all_keys(grants):
    pkru = PkruRegister.build(grants)
    for pkey in range(1, PKEY_COUNT):
        if pkey in grants:
            assert pkru.allows(pkey, AccessKind.READ)
            assert pkru.allows(pkey, AccessKind.WRITE) == grants[pkey]
        else:
            assert not pkru.allows(pkey, AccessKind.READ)


# ----------------------------------------------------------------------
# Regions and the address-space map
# ----------------------------------------------------------------------
def _map_with(*regions):
    aspace = AddressSpaceMap("test")
    for region in regions:
        aspace.map(region)
    return aspace


def test_region_validation():
    with pytest.raises(ValueError):
        Region(start=0, size=0, perms=Permission.rw(), pkey=1)
    with pytest.raises(ValueError):
        Region(start=0, size=10, perms=Permission.rw(), pkey=16)


def test_overlapping_map_rejected():
    aspace = _map_with(Region(0x1000, 0x1000, Permission.rw(), 1, "a"))
    with pytest.raises(ValueError):
        aspace.map(Region(0x1800, 0x1000, Permission.rw(), 2, "b"))


def test_adjacent_regions_allowed():
    aspace = _map_with(
        Region(0x1000, 0x1000, Permission.rw(), 1, "a"),
        Region(0x2000, 0x1000, Permission.rw(), 2, "b"),
    )
    assert aspace.find(0x1FFF).name == "a"
    assert aspace.find(0x2000).name == "b"


def test_find_unmapped_returns_none():
    aspace = _map_with(Region(0x1000, 0x1000, Permission.rw(), 1))
    assert aspace.find(0x0) is None
    assert aspace.find(0x2000) is None


def test_check_access_happy_path():
    region = Region(0x1000, 0x1000, Permission.rw(), 3)
    aspace = _map_with(region)
    pkru = PkruRegister.build({3: True})
    assert aspace.check_access(0x1400, AccessKind.WRITE, pkru) is region


def test_unmapped_access_is_page_fault():
    aspace = _map_with(Region(0x1000, 0x1000, Permission.rw(), 1))
    with pytest.raises(PageFault):
        aspace.check_access(0x9000, AccessKind.READ, PkruRegister(0))


def test_page_perms_checked_before_pkey():
    # Read-only page: a write faults as a page fault even with open PKRU.
    aspace = _map_with(Region(0x1000, 0x1000, Permission.READ, 1))
    with pytest.raises(PageFault):
        aspace.check_access(0x1000, AccessKind.WRITE, PkruRegister(0))


def test_pkey_denied_access_is_mpk_fault():
    aspace = _map_with(Region(0x1000, 0x1000, Permission.rw(), 4))
    pkru = PkruRegister.build({})  # nothing granted
    with pytest.raises(MpkFault) as excinfo:
        aspace.check_access(0x1000, AccessKind.READ, pkru)
    assert excinfo.value.pkey == 4


def test_exec_only_region_fetch_allowed_read_denied():
    # The §4.1 text-region property.
    aspace = _map_with(Region(0x1000, 0x1000, Permission.exec_only(), 2))
    pkru = PkruRegister.build({})  # no data rights at all
    aspace.check_access(0x1000, AccessKind.EXECUTE, pkru)  # ok
    with pytest.raises(PageFault):
        aspace.check_access(0x1000, AccessKind.READ, pkru)


def test_set_pkey_rebinds_region():
    region = Region(0x1000, 0x1000, Permission.rw(), 1)
    aspace = _map_with(region)
    aspace.set_pkey(region, 9)
    pkru = PkruRegister.build({9: True})
    aspace.check_access(0x1000, AccessKind.WRITE, pkru)


def test_set_pkey_unmapped_region_rejected():
    aspace = AddressSpaceMap()
    region = Region(0x1000, 0x1000, Permission.rw(), 1)
    with pytest.raises(ValueError):
        aspace.set_pkey(region, 2)


@given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                max_size=50))
def test_find_matches_linear_scan(addresses):
    regions = [Region(i * 0x10000, 0x8000, Permission.rw(), 1, f"r{i}")
               for i in range(8)]
    aspace = _map_with(*regions)
    for addr in addresses:
        expected = next((r for r in regions if r.start <= addr < r.end), None)
        assert aspace.find(addr) is expected
