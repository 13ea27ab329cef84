"""Tests for the syscall layer."""

import pytest

from repro.hardware.mpk import AddressSpaceMap, Permission
from repro.kernel.kprocess import KProcess
from repro.kernel.syscalls import SyscallError, SyscallLayer


@pytest.fixture
def syscalls(costs):
    return SyscallLayer(costs)


@pytest.fixture
def proc():
    return KProcess("app")


def test_mmap_creates_region(syscalls, proc):
    region = syscalls.mmap(proc.aspace, 0x1000, 0x1000, Permission.rw(), "r")
    assert proc.aspace.find(0x1000) is region
    assert syscalls.counts["mmap"] == 1


def test_mmap_zero_size_rejected(syscalls, proc):
    with pytest.raises(SyscallError):
        syscalls.mmap(proc.aspace, 0x1000, 0, Permission.rw())


def test_pkey_alloc_sequence(syscalls, proc):
    keys = [syscalls.pkey_alloc(proc.aspace) for _ in range(15)]
    assert keys == list(range(1, 16))


def test_pkey_exhaustion(syscalls, proc):
    for _ in range(15):
        syscalls.pkey_alloc(proc.aspace)
    with pytest.raises(SyscallError):
        syscalls.pkey_alloc(proc.aspace)


def test_pkey_mprotect_requires_allocated_key(syscalls, proc):
    region = syscalls.mmap(proc.aspace, 0x1000, 0x1000, Permission.rw())
    with pytest.raises(SyscallError):
        syscalls.pkey_mprotect(proc.aspace, region, 5)
    key = syscalls.pkey_alloc(proc.aspace)
    syscalls.pkey_mprotect(proc.aspace, region, key)
    assert region.pkey == key


def test_pkeys_tracked_per_aspace(syscalls):
    a, b = AddressSpaceMap("a"), AddressSpaceMap("b")
    assert syscalls.pkey_alloc(a) == 1
    assert syscalls.pkey_alloc(b) == 1  # independent namespaces


def test_fork_copies_address_space(syscalls, proc):
    syscalls.mmap(proc.aspace, 0x1000, 0x1000, Permission.rw(), "data")
    child = syscalls.fork(proc)
    assert child.pid != proc.pid
    assert child.parent is proc
    region = child.aspace.find(0x1000)
    assert region is not None and region is not proc.aspace.find(0x1000)


def test_fork_shares_descriptions(syscalls, proc):
    fd = syscalls.open(proc, "/etc/x")
    child = syscalls.fork(proc)
    assert child.fdtable.lookup(fd) is proc.fdtable.lookup(fd)
    assert proc.fdtable.lookup(fd).refcount == 2


def test_open_close_read(syscalls, proc):
    fd = syscalls.open(proc, "/data", owner_label="me")
    assert syscalls.read_fd(proc, fd).path == "/data"
    syscalls.close(proc, fd)
    with pytest.raises(SyscallError):
        syscalls.read_fd(proc, fd)


def test_close_bad_fd(syscalls, proc):
    with pytest.raises(SyscallError):
        syscalls.close(proc, 42)


def test_sched_setaffinity(syscalls, proc):
    syscalls.sched_setaffinity(proc, 3)
    assert proc.bound_core == 3


def test_costs_accumulate(syscalls, proc):
    before = syscalls.total_ns
    syscalls.open(proc, "/x")
    assert syscalls.total_ns > before


def test_ioctl_counts_by_request(syscalls, proc):
    syscalls.ioctl(proc, "KSCHED_PREEMPT")
    assert syscalls.counts["ioctl:KSCHED_PREEMPT"] == 1
