"""Tests for the program loader: inspection, PIE, placement, dlopen."""

import pytest

from repro.uprocess.loader import (
    CodeInspectionError,
    LoaderError,
    ProgramImage,
)
from repro.uprocess.uproc import UProcessState


def test_clean_image_loads(domain, two_uprocs):
    a, _ = two_uprocs
    # already loaded by manager; load another fresh image into the slot
    segments = domain.loader.dlopen(a, ProgramImage("lib-clean"))
    assert a.slot.text_region.start <= segments.text_addr \
        < a.slot.text_region.end


def test_wrpkru_in_main_image_rejected(domain, two_uprocs):
    a, _ = two_uprocs
    evil = ProgramImage("evil", instructions=["NOP", "WRPKRU"])
    with pytest.raises(CodeInspectionError) as excinfo:
        domain.loader.load(a, evil)
    assert excinfo.value.opcode == "WRPKRU"
    assert excinfo.value.offset == 1


def test_xrstor_also_rejected(domain, two_uprocs):
    a, _ = two_uprocs
    with pytest.raises(CodeInspectionError):
        domain.loader.load(a, ProgramImage("e", instructions=["XRSTOR"]))


def test_lowercase_opcode_still_caught(domain, two_uprocs):
    a, _ = two_uprocs
    with pytest.raises(CodeInspectionError):
        domain.loader.load(a, ProgramImage("e", instructions=["wrpkru"]))


def test_wrpkru_in_transitive_library_rejected(domain, two_uprocs):
    a, _ = two_uprocs
    inner = ProgramImage("inner", instructions=["WRPKRU"])
    outer = ProgramImage("outer", libraries=[
        ProgramImage("mid", libraries=[inner])])
    with pytest.raises(CodeInspectionError):
        domain.loader.load(a, outer)


def test_non_pie_rejected(domain, two_uprocs):
    a, _ = two_uprocs
    with pytest.raises(LoaderError):
        domain.loader.load(a, ProgramImage("static", pie=False))


def test_libraries_placed_via_allocator(domain, two_uprocs):
    a, _ = two_uprocs
    before = a.static_arena.free_bytes()
    lib = ProgramImage("lib", data_size=64 << 10)
    domain.loader.load(a, ProgramImage("main", libraries=[lib]))
    assert a.static_arena.free_bytes() < before


def test_text_region_exhaustion(domain, two_uprocs):
    a, _ = two_uprocs
    huge = ProgramImage("huge", text_size=1 << 30)
    with pytest.raises(LoaderError):
        domain.loader.load(a, huge)


def test_load_marks_state(domain, manager):
    from repro.uprocess.loader import ProgramImage
    up = manager.create_uprocess(domain, ProgramImage("fresh"))
    assert up.state is UProcessState.RUNNING


def test_dlopen_inspects(domain, two_uprocs):
    a, _ = two_uprocs
    with pytest.raises(CodeInspectionError):
        domain.loader.dlopen(a, ProgramImage("e", instructions=["WRPKRU"]))


def test_loaded_images_recorded(domain, two_uprocs):
    assert ("app-a", "app-a") in domain.loader.loaded_images


def test_entry_point_offset(domain, two_uprocs):
    a, _ = two_uprocs
    image = ProgramImage("offsety", entry_offset=0x40)
    segments = domain.loader.load(a, image)
    assert segments.entry_point == segments.text_addr + 0x40


def test_sequential_text_placement(domain, two_uprocs):
    a, _ = two_uprocs
    first = domain.loader.dlopen(a, ProgramImage("l1", text_size=0x1000))
    second = domain.loader.dlopen(a, ProgramImage("l2", text_size=0x1000))
    assert second.text_addr == first.text_addr + 0x1000
