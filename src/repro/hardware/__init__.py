"""Simulated hardware substrate.

Everything the paper's mechanisms touch on a real Sapphire Rapids machine
has a model here:

``timing``
    The calibrated nanosecond cost model (provenance: the paper's own
    measurements — Table 1, Figure 3, §2.2, §2.3).
``mpk``
    Memory protection keys: per-region pkeys, the PKRU register,
    WRPKRU/RDPKRU, combined page-permission + key checks.
``uintr``
    Userspace interrupts: UPID/UITT, ``senduipi``, delivery to the
    receiver's handler, posted vectors coalescing in the UPID.
``ipi``
    Kernel inter-processor interrupts (the slow path Caladan uses).
``membus``
    A max-min-fair shared memory-bandwidth model (Figure 13).
``cache``
    A set-associative LRU cache fed by sampled access streams (Figure 11).
``machine``
    Cores (with PKRU and mode tracking) and the machine topology.
"""

from repro.hardware.timing import CostModel
from repro.hardware.machine import Core, CoreMode, Machine
from repro.hardware.mpk import (
    AccessKind,
    MpkFault,
    PageFault,
    Permission,
    PkruRegister,
    Region,
    AddressSpaceMap,
    PKEY_COUNT,
)
from repro.hardware.uintr import Upid, UittEntry, UintrController
from repro.hardware.ipi import IpiController
from repro.hardware.membus import MemoryBus, Transfer
from repro.hardware.cache import CacheSim, CacheStats

__all__ = [
    "CostModel",
    "Core",
    "CoreMode",
    "Machine",
    "AccessKind",
    "MpkFault",
    "PageFault",
    "Permission",
    "PkruRegister",
    "Region",
    "AddressSpaceMap",
    "PKEY_COUNT",
    "Upid",
    "UittEntry",
    "UintrController",
    "IpiController",
    "MemoryBus",
    "Transfer",
    "CacheSim",
    "CacheStats",
]
