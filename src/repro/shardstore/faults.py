"""Registry of the 16 issues from the paper's Fig. 5, as injectable faults.

The paper's headline result is a catalog of 16 bugs its validation stack
prevented from reaching production.  To *reproduce* that evaluation we need
the bugs themselves: each entry here re-implements one Fig. 5 issue as a
toggleable fault inside the corresponding component.  With all faults off,
the implementation is correct and every checker passes; enabling a fault
reintroduces the bug, and the Fig. 5 benchmark
(`benchmarks/test_fig5_detection_matrix.py`) demonstrates that the matching
checker detects it.

Fault flags are carried on a :class:`FaultSet` threaded through component
constructors -- never global state -- so tests remain deterministic and
parallel-safe.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable


class Fault(enum.Enum):
    """One member per Fig. 5 issue, numbered as in the paper."""

    # -- functional correctness (detected by conformance PBT, section 4) --
    RECLAIM_OFF_BY_ONE = 1
    # #1 Chunk store: off-by-one in reclamation for chunks of size close to
    # PAGE_SIZE -- the scan under-counts the chunk's footprint and misses a
    # chunk whose frame ends exactly at a page boundary.
    CACHE_NOT_DRAINED_ON_RESET = 2
    # #2 Buffer cache: cache was not correctly drained after resetting an
    # extent -- reads after the extent is reused can return stale pages.
    SHUTDOWN_SKIPS_METADATA_AFTER_RESET = 3
    # #3 Index: metadata was not flushed correctly during shutdown if an
    # extent was reset -- a clean reboot loses recent index entries.
    DISK_RETURN_DROPS_SHARDS = 4
    # #4 API: shards could be lost if a disk was removed from service and
    # then later returned.
    RECLAIM_FORGETS_ON_READ_ERROR = 5
    # #5 Chunk store: reclamation could forget chunks after a transient
    # read IO error -- the scan treats the error like "no more chunks".

    # -- crash consistency (detected by the section 5 checker) -----------
    SUPERBLOCK_WRONG_DEP_AFTER_REBOOT = 6
    # #6 Superblock: the dependency for extent-ownership records was
    # incorrect after a reboot (a stale pre-reboot flush promise is reused,
    # so operations report persistent before the post-reboot superblock
    # record is durable).
    SOFT_HARD_POINTER_MISMATCH_ON_RESET = 7
    # #7 Superblock: mismatch between soft and hard write pointers in a
    # crash after an extent reset -- the pointer-zero superblock update
    # does not depend on the reset (and its evacuations) persisting.
    CACHE_WRITE_MISSING_SOFT_PTR_DEP = 8
    # #8 Buffer cache: writes did not include a dependency on the soft
    # write pointer update -- data can be durable while the recovered
    # pointer excludes it.
    MODEL_STALE_AFTER_CRASH_RECLAIM = 9
    # #9 Chunk store: the *reference model* was not updated correctly
    # after a crash during reclamation (a bug in the validation artifact
    # itself, caught because model and implementation then diverge).
    UUID_MAGIC_COLLISION_SCAN = 10
    # #10 Chunk store: reclamation could forget chunks after a crash and
    # UUID collision -- the exact torn-write/overlapping-chunk scenario
    # of the paper's section 5 example.

    # -- concurrency (detected by stateless model checking, section 6) ---
    LOCATOR_RACE_WRITE_FLUSH = 11
    # #11 Chunk store: chunk locators could become invalid after a race
    # between write and flush.
    BUFFER_POOL_DEADLOCK = 12
    # #12 Superblock: buffer pool exhaustion could cause threads waiting
    # for a superblock update to deadlock.
    LIST_REMOVE_RACE = 13
    # #13 API: race between control-plane operations for listing and
    # removal of shards.
    COMPACTION_RECLAIM_RACE = 14
    # #14 Index: race between reclamation and LSM compaction could lose
    # recent index entries -- the paper's section 6 example.
    MODEL_REUSES_LOCATORS = 15
    # #15 Chunk store: the reference model could re-use chunk locators,
    # which other code assumed were unique (another validation-artifact
    # bug, caught by an invariant check).
    BULK_CREATE_REMOVE_RACE = 16
    # #16 API: race between control-plane bulk operations for creating
    # and removing shards.


#: Fig. 5 metadata: paper's component and property class for each issue.
FAULT_CATALOG: Dict[Fault, Dict[str, str]] = {
    Fault.RECLAIM_OFF_BY_ONE: {
        "component": "Chunk store",
        "property": "Functional Correctness",
        "description": "Off-by-one error in reclamation for chunks of size "
        "close to PAGE_SIZE",
    },
    Fault.CACHE_NOT_DRAINED_ON_RESET: {
        "component": "Buffer cache",
        "property": "Functional Correctness",
        "description": "Cache was not correctly drained after resetting an extent",
    },
    Fault.SHUTDOWN_SKIPS_METADATA_AFTER_RESET: {
        "component": "Index",
        "property": "Functional Correctness",
        "description": "Metadata was not flushed correctly during shutdown "
        "if an extent was reset",
    },
    Fault.DISK_RETURN_DROPS_SHARDS: {
        "component": "API",
        "property": "Functional Correctness",
        "description": "Shards could be lost if a disk was removed from "
        "service and then later returned",
    },
    Fault.RECLAIM_FORGETS_ON_READ_ERROR: {
        "component": "Chunk store",
        "property": "Functional Correctness",
        "description": "Reclamation could forget chunks after a transient "
        "read IO error",
    },
    Fault.SUPERBLOCK_WRONG_DEP_AFTER_REBOOT: {
        "component": "Superblock",
        "property": "Crash Consistency",
        "description": "Superblock Dependency for extent ownership was "
        "incorrect after a reboot",
    },
    Fault.SOFT_HARD_POINTER_MISMATCH_ON_RESET: {
        "component": "Superblock",
        "property": "Crash Consistency",
        "description": "Mismatch between soft and hard write pointers in a "
        "crash after an extent reset",
    },
    Fault.CACHE_WRITE_MISSING_SOFT_PTR_DEP: {
        "component": "Buffer cache",
        "property": "Crash Consistency",
        "description": "Writes did not include a dependency on the soft "
        "write pointer update",
    },
    Fault.MODEL_STALE_AFTER_CRASH_RECLAIM: {
        "component": "Chunk store",
        "property": "Crash Consistency",
        "description": "Reference model was not updated correctly after a "
        "crash during reclamation",
    },
    Fault.UUID_MAGIC_COLLISION_SCAN: {
        "component": "Chunk store",
        "property": "Crash Consistency",
        "description": "Reclamation could forget chunks after a crash and "
        "UUID collision",
    },
    Fault.LOCATOR_RACE_WRITE_FLUSH: {
        "component": "Chunk store",
        "property": "Concurrency",
        "description": "Chunk locators could become invalid after a race "
        "between write and flush",
    },
    Fault.BUFFER_POOL_DEADLOCK: {
        "component": "Superblock",
        "property": "Concurrency",
        "description": "Buffer pool exhaustion could cause threads waiting "
        "for a superblock update to deadlock",
    },
    Fault.LIST_REMOVE_RACE: {
        "component": "API",
        "property": "Concurrency",
        "description": "Race between control plane operations for listing "
        "and removal of shards",
    },
    Fault.COMPACTION_RECLAIM_RACE: {
        "component": "Index",
        "property": "Concurrency",
        "description": "Race between reclamation and LSM compaction could "
        "lose recent index entries",
    },
    Fault.MODEL_REUSES_LOCATORS: {
        "component": "Chunk store",
        "property": "Concurrency",
        "description": "Reference model could re-use chunk locators, which "
        "other code assumed were unique",
    },
    Fault.BULK_CREATE_REMOVE_RACE: {
        "component": "API",
        "property": "Concurrency",
        "description": "Race between control plane bulk operations for "
        "creating and removing shards",
    },
}


class FaultSet:
    """An immutable set of enabled faults, threaded through components."""

    __slots__ = ("_enabled",)

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self._enabled: FrozenSet[Fault] = frozenset(faults)

    @classmethod
    def none(cls) -> "FaultSet":
        return cls()

    @classmethod
    def only(cls, fault: Fault) -> "FaultSet":
        return cls((fault,))

    def enabled(self, fault: Fault) -> bool:
        # An empty set answers before ``in`` hashes the Enum (a Python
        # frame): the unfaulted hot path asks this on every append.
        return bool(self._enabled) and fault in self._enabled

    def __iter__(self):
        return iter(sorted(self._enabled, key=lambda f: f.value))

    def __bool__(self) -> bool:
        return bool(self._enabled)

    def __repr__(self) -> str:
        names = ", ".join(f.name for f in self)
        return f"FaultSet({names})"


def component_of(fault: Fault) -> str:
    """The paper's Fig. 5 component for ``fault`` (fault-event log labels)."""
    return FAULT_CATALOG[fault]["component"]


def detector_for(fault: Fault) -> str:
    """Which checker in this repo demonstrates the fault (Fig. 5 bench)."""
    prop = FAULT_CATALOG[fault]["property"]
    if prop == "Functional Correctness":
        return "conformance PBT"
    if prop == "Crash Consistency":
        return "crash-consistency PBT"
    return "stateless model checking"
