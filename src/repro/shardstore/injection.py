"""Seeded, deterministic failure-injection plans (section 4.4).

The paper's failure-injection mode asserts that *any* IO may fail and the
node must still either complete each operation or fail it with a typed
retryable error.  A :class:`FaultPlan` makes that dimension systematic: it
is a seeded schedule of faults addressed by **(operation count, disk,
extent)** coordinates -- no wall clock anywhere -- so a campaign shard
replays byte-identically from its seed alone.

Fault kinds map onto the disk's injection primitives
(:meth:`~repro.shardstore.disk.InMemoryDisk.arm_fault` /
:meth:`~repro.shardstore.disk.InMemoryDisk.corrupt`):

==================  ========================================================
``transient-read``   next read on the extent fails (``IoError(transient)``)
``transient-write``  next write on the extent fails
``torn-write``       next write lands a durable prefix, then fails
``permanent``        every IO on the extent fails until faults are cleared
``permanent-disk``   every data-extent IO on one disk fails (a dying disk)
``bit-flip``         one durable bit flips silently (CRC catches it later)
``heal``             all faults on one disk clear (the disk was replaced)
``slow-disk``        one disk's per-IO latency ramps to ``arg`` units (gray
                     failure / brownout; latency EWMA + SLOW breaker react)
``burst``            ``arg`` arrivals land in zero logical time (the node's
                     op clock freezes; admission backlog builds and sheds)
==================  ========================================================

Plans only ever target *data* extents: superblock/metadata extents carry
the recovery machinery itself, and corrupting those models a different
failure class (a dead node) than the per-IO contract this campaign checks.

The checker side lives in :mod:`repro.campaign.injection`; the tolerance
side (retry/backoff, the disk circuit breaker, scrub-repair) lives in
:mod:`repro.shardstore.resilience`, :mod:`repro.shardstore.rpc` and
:mod:`repro.shardstore.store`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "FAULT_TRANSIENT_READ",
    "FAULT_TRANSIENT_WRITE",
    "FAULT_TORN_WRITE",
    "FAULT_PERMANENT",
    "FAULT_PERMANENT_DISK",
    "FAULT_BIT_FLIP",
    "FAULT_HEAL",
    "FAULT_SLOW_DISK",
    "FAULT_BURST",
    "FAULT_NODE_CRASH",
    "FAULT_NODE_RESTART",
    "FAULT_PARTITION",
    "FAULT_PARTITION_HEAL",
    "FAULT_NODE_SLOW",
    "BROWNOUT_RAMP",
    "OVERLOAD_BURSTS",
    "OVERLOAD_SLOWDOWNS",
    "STORE_PROFILES",
    "NODE_PROFILES",
    "CLUSTER_PROFILES",
    "PlannedFault",
    "FaultPlan",
    "FaultInjector",
]

FAULT_TRANSIENT_READ = "transient-read"
FAULT_TRANSIENT_WRITE = "transient-write"
FAULT_TORN_WRITE = "torn-write"
FAULT_PERMANENT = "permanent"
FAULT_PERMANENT_DISK = "permanent-disk"
FAULT_BIT_FLIP = "bit-flip"
FAULT_HEAL = "heal"
FAULT_SLOW_DISK = "slow-disk"
FAULT_BURST = "burst"

# Cluster-level fault kinds: ``disk`` is reused as the *node id* (the plan
# coordinate system stays (op index, target, extent) -- only the target's
# meaning widens from disk to node).  ``node-crash`` takes the node down and
# dirty-reboots its disks on ``node-restart`` (un-drained writes are lost);
# ``partition`` makes the node unreachable from the router for ``arg`` ops
# without losing state; ``node-slow`` holds ``arg`` arrivals at the node so
# its admission queue backs up and sheds.
FAULT_NODE_CRASH = "node-crash"
FAULT_NODE_RESTART = "node-restart"
FAULT_PARTITION = "partition"
FAULT_PARTITION_HEAL = "partition-heal"
FAULT_NODE_SLOW = "node-slow"

#: Store-level plan profiles: which fault kinds a profile draws from.
STORE_PROFILES: Dict[str, Tuple[str, ...]] = {
    "transient": (FAULT_TRANSIENT_READ, FAULT_TRANSIENT_WRITE, FAULT_TORN_WRITE),
    "corruption": (
        FAULT_TRANSIENT_READ,
        FAULT_TRANSIENT_WRITE,
        FAULT_TORN_WRITE,
        FAULT_BIT_FLIP,
    ),
    "mixed": (
        FAULT_TRANSIENT_READ,
        FAULT_TRANSIENT_WRITE,
        FAULT_TORN_WRITE,
        FAULT_PERMANENT,
        FAULT_BIT_FLIP,
    ),
}

#: Node-level plan profiles.  ``permanent`` guarantees one dying disk with
#: no heal event -- the scenario the circuit breaker must survive (and the
#: one the CI negative test proves fails with the breaker disabled).
NODE_PROFILES: Dict[str, Tuple[str, ...]] = {
    "transient": (FAULT_TRANSIENT_READ, FAULT_TRANSIENT_WRITE, FAULT_TORN_WRITE),
    "permanent": (
        FAULT_TRANSIENT_READ,
        FAULT_TRANSIENT_WRITE,
        FAULT_PERMANENT_DISK,
    ),
    "mixed": (
        FAULT_TRANSIENT_READ,
        FAULT_TRANSIENT_WRITE,
        FAULT_TORN_WRITE,
        FAULT_PERMANENT_DISK,
        FAULT_HEAL,
    ),
    # Gray-failure profiles (brownouts; the deadline-aware request plane
    # reacts).  Point faults stay mild -- no corruption, no dying disk --
    # because these plans gate on *latency* behaviour, not repair.
    "brownout": (
        FAULT_TRANSIENT_READ,
        FAULT_TRANSIENT_WRITE,
        FAULT_SLOW_DISK,
        FAULT_HEAL,
    ),
    "overload": (
        FAULT_TRANSIENT_READ,
        FAULT_TRANSIENT_WRITE,
        FAULT_SLOW_DISK,
        FAULT_BURST,
    ),
}

#: Cluster-level plan profiles (node-granularity storms driven through
#: the :class:`~repro.cluster.router.ClusterRouter`).  Every outage window
#: is paired with its heal/restart event and concurrent outages never
#: exceed a strict minority of the cluster, so the acknowledged-write
#: durability property is *supposed* to hold -- the campaign checks it.
CLUSTER_PROFILES: Dict[str, Tuple[str, ...]] = {
    "node-crash": (FAULT_NODE_CRASH, FAULT_NODE_RESTART),
    "partition": (FAULT_PARTITION, FAULT_PARTITION_HEAL, FAULT_NODE_SLOW),
    "cluster-mixed": (
        FAULT_NODE_CRASH,
        FAULT_NODE_RESTART,
        FAULT_PARTITION,
        FAULT_PARTITION_HEAL,
        FAULT_NODE_SLOW,
    ),
}

#: Latency ramp (units per IO) a brownout plan walks the disks through.
BROWNOUT_RAMP: Tuple[int, ...] = (8, 16, 24)

#: Burst sizes (held arrivals) storm plans draw from.
OVERLOAD_BURSTS: Tuple[int, ...] = (48, 64, 96)

#: Moderate per-IO slowdowns an overload plan pairs with its bursts.
OVERLOAD_SLOWDOWNS: Tuple[int, ...] = (4, 6, 8)


@dataclass(frozen=True)
class PlannedFault:
    """One scheduled fault: *before* operation ``op_index``, do ``kind``.

    ``arg`` parameterises kinds that need a magnitude: the per-IO latency
    for ``slow-disk``, the number of held arrivals for ``burst``.  Point
    faults leave it 0.
    """

    op_index: int
    kind: str
    disk: int = 0
    extent: int = 0
    arg: int = 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "op": self.op_index,
            "kind": self.kind,
            "disk": self.disk,
            "extent": self.extent,
            "arg": self.arg,
        }


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults for one operation sequence."""

    seed: int
    profile: str
    ops: int
    faults: Tuple[PlannedFault, ...]

    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        ops: int,
        extents: Iterable[int],
        profile: str = "transient",
        num_disks: int = 0,
        fault_count: Optional[int] = None,
    ) -> "FaultPlan":
        """Draw a plan from ``seed``.

        ``num_disks`` = 0 generates a store-level plan (one disk, extent
        coordinates only); > 0 a node-level plan that also picks disks.
        ``permanent``/``mixed`` node profiles schedule at most one dying
        disk (never disk 0, so the node always keeps a survivor) killed in
        the first half of the sequence; ``mixed`` may heal it later.

        ``brownout`` walks *every* disk through the :data:`BROWNOUT_RAMP`
        latency steps early in the sequence (a fleet-wide gray failure:
        the SLOW breaker can demote disks, but the last one limps along
        slow, so pressure is sustained), lands one arrival burst mid-ramp,
        and heals one disk later -- the replaced-disk event that gives
        migration a fast target again.  ``overload`` slows all
        disks moderately (:data:`OVERLOAD_SLOWDOWNS`) and then schedules
        three arrival bursts from :data:`OVERLOAD_BURSTS` across the rest
        of the sequence.  Neither draws corruption or dying-disk faults:
        they gate on the latency/admission behaviour, not on repair.
        """
        if ops <= 0:
            raise ValueError("ops must be positive")
        extent_list = sorted(set(extents))
        if not extent_list:
            raise ValueError("a fault plan needs target extents")
        node = num_disks > 0
        profiles = NODE_PROFILES if node else STORE_PROFILES
        if profile not in profiles:
            raise ValueError(
                f"unknown {'node' if node else 'store'} profile {profile!r}"
            )
        kinds = profiles[profile]
        rng = random.Random(seed)
        count = fault_count if fault_count is not None else max(2, ops // 8)
        faults: List[PlannedFault] = []
        if node and FAULT_PERMANENT_DISK in kinds and num_disks > 1:
            dying = rng.randrange(1, num_disks)
            kill_at = rng.randrange(max(1, ops // 4), max(2, ops // 2))
            faults.append(
                PlannedFault(kill_at, FAULT_PERMANENT_DISK, disk=dying)
            )
            if FAULT_HEAL in kinds and rng.random() < 0.5 and kill_at + 2 < ops:
                heal_at = rng.randrange(kill_at + 2, ops)
                faults.append(PlannedFault(heal_at, FAULT_HEAL, disk=dying))
        if node and profile == "brownout":
            start = rng.randrange(max(1, ops // 8), max(2, ops // 6 + 1))
            step = max(1, ops // 12)
            for disk in range(num_disks):
                for i, latency in enumerate(BROWNOUT_RAMP):
                    faults.append(
                        PlannedFault(
                            start + i * step,
                            FAULT_SLOW_DISK,
                            disk=disk,
                            arg=latency,
                        )
                    )
            faults.append(
                PlannedFault(
                    start + step + 1,
                    FAULT_BURST,
                    arg=rng.choice(OVERLOAD_BURSTS),
                )
            )
            ramp_end = start + (len(BROWNOUT_RAMP) - 1) * step
            heal_at = rng.randrange(
                ramp_end + 2, max(ramp_end + 3, ops * 3 // 4)
            )
            faults.append(
                PlannedFault(heal_at, FAULT_HEAL, disk=rng.randrange(num_disks))
            )
        if node and profile == "overload":
            slow_at = rng.randrange(max(1, ops // 8), max(2, ops // 6 + 1))
            for disk in range(num_disks):
                faults.append(
                    PlannedFault(
                        slow_at,
                        FAULT_SLOW_DISK,
                        disk=disk,
                        arg=rng.choice(OVERLOAD_SLOWDOWNS),
                    )
                )
            for i in range(3):
                faults.append(
                    PlannedFault(
                        slow_at + 2 + i * max(1, ops // 5),
                        FAULT_BURST,
                        arg=rng.choice(OVERLOAD_BURSTS),
                    )
                )
        point_kinds = [
            k
            for k in kinds
            if k
            not in (FAULT_PERMANENT_DISK, FAULT_HEAL, FAULT_SLOW_DISK, FAULT_BURST)
        ]
        for _ in range(count):
            faults.append(
                PlannedFault(
                    op_index=rng.randrange(ops),
                    kind=rng.choice(point_kinds),
                    disk=rng.randrange(num_disks) if node else 0,
                    extent=rng.choice(extent_list),
                )
            )
        faults.sort(key=lambda f: (f.op_index, f.kind, f.disk, f.extent, f.arg))
        return cls(seed=seed, profile=profile, ops=ops, faults=tuple(faults))

    @classmethod
    def generate_cluster(
        cls,
        seed: int,
        *,
        ops: int,
        num_nodes: int,
        profile: str = "cluster-mixed",
        windows: int = 3,
    ) -> "FaultPlan":
        """Draw a node-granularity storm plan from ``seed``.

        ``disk`` carries the *node id*.  The plan schedules outage windows
        -- crash..restart or partition..heal pairs -- with two invariants
        the durability property depends on: a node is never in two
        overlapping windows, and at no op index are more than a strict
        minority of nodes down or partitioned at once.  Windows are long
        relative to the hinted-handoff buffer, so hint overflow (and hence
        replica divergence that only read-repair can converge) is expected,
        not exceptional.  ``node-slow`` events hold ``arg`` arrivals at one
        node so its admission queue sheds -- a gray replica, not a dead one.
        """
        if ops <= 0:
            raise ValueError("ops must be positive")
        if num_nodes < 3:
            raise ValueError("cluster plans need at least 3 nodes")
        if profile not in CLUSTER_PROFILES:
            raise ValueError(f"unknown cluster profile {profile!r}")
        kinds = CLUSTER_PROFILES[profile]
        rng = random.Random(seed)
        minority = max(1, (num_nodes - 1) // 2)
        crash_kind = FAULT_NODE_CRASH in kinds
        part_kind = FAULT_PARTITION in kinds
        spans: List[Tuple[int, int, int]] = []
        faults: List[PlannedFault] = []
        for _ in range(windows * 4):
            if len(spans) >= windows:
                break
            node = rng.randrange(num_nodes)
            start = rng.randrange(max(1, ops // 10), max(2, ops // 2))
            length = rng.randrange(max(4, ops // 6), max(5, ops // 3))
            end = min(ops - 2, start + length)
            if end <= start:
                continue
            overlapping = [
                s for s in spans if not (end < s[0] or s[1] < start)
            ]
            if any(s[2] == node for s in overlapping):
                continue
            if len(overlapping) + 1 > minority:
                continue
            spans.append((start, end, node))
            is_crash = (
                rng.random() < 0.5 if (crash_kind and part_kind) else crash_kind
            )
            if is_crash:
                faults.append(PlannedFault(start, FAULT_NODE_CRASH, disk=node))
                faults.append(PlannedFault(end, FAULT_NODE_RESTART, disk=node))
            else:
                faults.append(PlannedFault(start, FAULT_PARTITION, disk=node))
                faults.append(
                    PlannedFault(end, FAULT_PARTITION_HEAL, disk=node)
                )
        if FAULT_NODE_SLOW in kinds:
            for _ in range(rng.randrange(1, 3)):
                faults.append(
                    PlannedFault(
                        rng.randrange(max(1, ops // 8), max(2, ops - 1)),
                        FAULT_NODE_SLOW,
                        disk=rng.randrange(num_nodes),
                        arg=rng.choice(OVERLOAD_BURSTS),
                    )
                )
        faults.sort(key=lambda f: (f.op_index, f.kind, f.disk, f.extent, f.arg))
        return cls(seed=seed, profile=profile, ops=ops, faults=tuple(faults))

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for fault in self.faults:
            out[fault.kind] = out.get(fault.kind, 0) + 1
        return dict(sorted(out.items()))

    @property
    def has_permanent(self) -> bool:
        permanent = {FAULT_PERMANENT, FAULT_PERMANENT_DISK}
        healed = {f.disk for f in self.faults if f.kind == FAULT_HEAL}
        return any(
            f.kind in permanent and f.disk not in healed for f in self.faults
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "profile": self.profile,
            "ops": self.ops,
            "counts": self.counts(),
            "faults": [fault.to_json() for fault in self.faults],
        }


class FaultInjector:
    """Walks a :class:`FaultPlan` alongside an operation sequence.

    The driver calls :meth:`due` with each operation index (monotonically
    increasing); every planned fault scheduled at or before that index is
    handed out exactly once, in plan order.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._cursor = 0
        self.delivered = 0

    def due(self, op_index: int) -> Sequence[PlannedFault]:
        out: List[PlannedFault] = []
        while (
            self._cursor < len(self.plan.faults)
            and self.plan.faults[self._cursor].op_index <= op_index
        ):
            out.append(self.plan.faults[self._cursor])
            self._cursor += 1
        self.delivered += len(out)
        return out

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.plan.faults)
