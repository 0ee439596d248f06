"""The storage-node RPC layer: many disks, one request interface.

ShardStore hosts run several HDDs; each disk is an isolated failure domain
running an independent key-value store, and a shared RPC layer steers
requests to target disks by shard id (section 2.1).  This module implements
that layer plus the control-plane operations the paper's API-level issues
live in:

* ``remove_disk``/``return_disk`` -- taking a disk out of service migrates
  its shards to the remaining disks; fault #4 re-installs the removed
  disk's stale routing entries when it returns, resurrecting old data and
  losing writes made while it was away.
* ``keys`` -- fault #13 iterates the routing table without the node
  lock, racing concurrent removals.
* ``bulk_create``/``bulk_delete`` -- fault #16 releases the node lock
  between items, so concurrent bulk operations interleave non-atomically.

Each disk sits behind one :class:`~repro.shardstore.lane.DiskLane`, which
is where the request plane's *self-healing* lives (the tolerance side of
the paper's section 4.4 failure injection: retries and typed errors, the
circuit breaker, the deadline-aware admission queue).  What needs the
routing table stays here: a tripped breaker auto-demotes its disk via the
same shard migration ``remove_disk`` uses; a disk whose shards cannot all
be migrated enters *degraded read-only* mode (stranded shards stay routed
to it and are served best-effort, writes re-steer away).  Each shard lives
on exactly one disk: a shed request of any kind raises its typed error,
and serving a key from another copy is the cluster router's job
(:mod:`repro.cluster.router`).  All of it is clocked by the node's op
counter and virtual unit clock, never wall time, so campaigns stay
byte-identical.
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.concurrency.primitives import Mutex, yield_point

from .config import StoreConfig
from .dependency import Dependency
from .errors import (
    InvalidRequestError,
    IoError,
    KeyNotFoundError,
    NotFoundError,
    RetryableError,
    ShardStoreError,
    validate_key,
)
from .faults import Fault, FaultSet
from .lane import PROBE_KEY, DiskLane, LaneContext, NodeStats
from .observability.journal import (
    bool_outcome,
    digest_bytes,
    journaled,
    keys_outcome,
    repair_outcome,
    value_outcome,
)
from .observability.recorder import NULL_SPAN
from .resilience import ARRIVAL_INTERVAL_UNITS, AdmissionConfig, BreakerState
from .scrub import RepairReport, ScrubReport
from .store import ShardStore, StoreSystem

__all__ = ["PROBE_KEY", "NodeDependency", "NodeStats", "StorageNode"]

_T = TypeVar("_T")


def _steer(key: bytes, num_disks: int) -> int:
    """Deterministic primary disk for a shard id."""
    return zlib.crc32(key) % num_disks


class NodeDependency:
    """Conjunction of per-disk dependencies.

    Each disk is an isolated failure domain with its own
    :class:`~repro.shardstore.dependency.DurabilityTracker`, so node-wide
    operations cannot use :meth:`Dependency.and_` (it rejects cross-system
    combination by design).  This wrapper provides the same
    ``is_persistent()`` observable over the conjunction.
    """

    __slots__ = ("deps",)

    def __init__(self, deps: List[Dependency]) -> None:
        self.deps = tuple(deps)

    def is_persistent(self) -> bool:
        return all(dep.is_persistent() for dep in self.deps)


# Request validation at the RPC boundary, run by the op envelope before the
# record opens: an invalid key must be rejected identically by every
# operation, not only by the ones whose routing happens to reach a store.


def _client_key(key: object) -> None:
    """A valid shard key that is not :data:`PROBE_KEY` -- that one is the
    lanes' own: a client shard under it would be overwritten and deleted
    by the next readmission probe."""
    validate_key(key)
    if key == PROBE_KEY:
        raise InvalidRequestError(f"key {key!r} is reserved for breaker probes")


def _check_pairs(node: "StorageNode", pairs: List[Tuple[bytes, bytes]]) -> None:
    for key, _ in pairs:
        _client_key(key)


def _check_keys(node: "StorageNode", keys: List[bytes]) -> None:
    for key in keys:
        _client_key(key)


def _check_disk(node: "StorageNode", *args: int) -> None:
    """The disk id is the last argument of every op that takes one."""
    if not 0 <= args[-1] < len(node.lanes):
        raise InvalidRequestError(f"no disk {args[-1]}")


def _disk_field(node: "StorageNode", *args: object) -> Dict[str, object]:
    """``disk`` record field: the disk id is every such op's last argument."""
    return {"disk": args[-1]}


class StorageNode:
    """A multi-disk ShardStore storage node with a steering RPC layer.

    A routing table (shard id -> disk id) over one
    :class:`~repro.shardstore.lane.DiskLane` per disk.
    """

    def __init__(
        self,
        num_disks: int = 3,
        config: Optional[StoreConfig] = None,
        *,
        retries: bool = True,
        breaker: bool = True,
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        if num_disks < 1:
            raise InvalidRequestError("a storage node needs at least one disk")
        base = config or StoreConfig()
        self.config = base
        self.faults: FaultSet = base.faults
        self.recorder = base.recorder
        # The evidence journal is shared with every per-disk store (the
        # journal's nesting guard makes the delegated store ops invisible,
        # so each client-visible node op emits exactly one record).
        self.journal = journal = base.journal
        # Deadline-aware request plane: None keeps the historical
        # no-deadline behaviour (and zero overhead on the hot path).
        self.admission = admission
        self.ctx = LaneContext(
            retries=retries,
            breaker=breaker,
            admission=admission,
            recorder=self.recorder,
            on_trip=self._demote,
            note_retry=journal.note_retry if journal is not None else None,
            on_transition=self._journal_breaker if journal is not None else None,
        )
        self.stats = self.ctx.stats
        if self.recorder.enabled:
            self.recorder.watch("node", self.stats)
        self.lanes: List[DiskLane] = [
            DiskLane(
                disk_id,
                StoreSystem(replace(base, seed=base.seed + disk_id + 1)),
                self.ctx,
            )
            for disk_id in range(num_disks)
        ]
        self.systems: List[StoreSystem] = [lane.system for lane in self.lanes]
        self._shard_map: Dict[bytes, int] = {}
        # Fault #4's stale state: routing entries saved at removal time.
        self._removed_routing: Dict[int, Dict[bytes, int]] = {}
        self._lock = Mutex(None, name="storage-node")
        # Ops for which the admission clock stands still (an injected
        # overload burst).
        self._held_arrivals = 0

    # ------------------------------------------------------------------
    # op clock and evidence plumbing

    def _journal_breaker(
        self,
        disk_id: int,
        old: BreakerState,
        new: BreakerState,
        reset: Optional[bool] = None,
    ) -> None:
        """Journal a breaker transition as a standalone record.

        Written in transition order, so the invariant miner can check the
        breaker state machine's legality per disk from the journal alone.
        """
        self.journal.record_op(
            "breaker",
            disk=disk_id,
            reset=reset,
            **{"from": old.value, "to": new.value},
        )

    def _tick(self) -> None:
        """Advance the node's logical op clock and probe cooled-down disks.

        The breaker is clocked by this counter, not wall time, so the whole
        trip/cooldown/probe/probation cycle is deterministic under the
        validation harnesses.  The admission clock advances in lockstep
        (:data:`ARRIVAL_INTERVAL_UNITS` per op) unless arrivals are held by an
        injected overload burst, in which case completed work outpaces the
        frozen clock and the backlog builds exactly as a real burst would.
        Breakers are asked about probes only while one is tripped (a
        disabled breaker never trips).
        """
        ctx = self.ctx
        ctx.ops += 1
        if self.admission is not None:
            if self._held_arrivals > 0:
                self._held_arrivals -= 1
            else:
                ctx.clock += ARRIVAL_INTERVAL_UNITS
        if not ctx.tripped:
            return
        for lane in self.lanes:
            if lane.breaker.should_probe(ctx.ops) and lane.probe():
                self._readmit(lane)

    def hold_arrivals(self, count: int) -> None:
        """Freeze the admission clock for the next ``count`` ops (burst).

        The overload-storm injector models a burst of arrivals faster than
        the disks can serve: the virtual clock stands still while admitted
        work still charges its cost, so backlog accumulates and the
        admission queue sheds once its bound or the deadline is breached.
        """
        if count < 0:
            raise InvalidRequestError("hold_arrivals count must be >= 0")
        self._held_arrivals += count

    def advance_clock(self, units: int) -> None:
        """Advance the admission clock (post-storm settlement cool-down)."""
        if units < 0:
            raise InvalidRequestError("advance_clock units must be >= 0")
        self.ctx.clock += units
        self._held_arrivals = 0

    def _lane_io(
        self, op: str, key: bytes, lane: DiskLane, fn: Callable[[], _T]
    ) -> _T:
        """``lane.io(fn)``, inside a ``node.<op>`` span when tracing."""
        if not self.recorder.enabled:
            return lane.io(fn)
        with self.recorder.span(f"node.{op}", key=repr(key), disk=lane.disk_id):
            return lane.io(fn)

    # ------------------------------------------------------------------
    # request plane

    def _write_target(self, key: bytes) -> int:
        """Where a write of ``key`` goes (node lock held): its current
        disk while that is in service, else a freshly steered one."""
        target = self._shard_map.get(key)
        if target is None or not self.lanes[target].in_service:
            target = self._pick_target(key)
        return target

    def _pick_target(self, key: bytes) -> int:
        primary = _steer(key, len(self.lanes))
        for probe in range(len(self.lanes)):
            disk_id = (primary + probe) % len(self.lanes)
            if self.lanes[disk_id].in_service:
                return disk_id
        raise RetryableError("no disk in service")

    @journaled("put", key=_client_key, value=True)
    def put(
        self, key: bytes, value: bytes, *, deadline: Optional[int] = None
    ) -> Dependency:
        self.stats.puts += 1
        self._tick()
        with self._lock:
            target = self._write_target(key)
        lane = self.lanes[target]
        # Admission precedes the routing write: a shed put must not leave
        # a dangling route to a shard that was never stored (``contains``
        # would otherwise report a key the store never accepted).
        if lane.queue is not None:
            lane.admit(deadline)
        with self._lock:
            self._shard_map[key] = target
        return self._lane_io("put", key, lane, lambda: lane.store.put(key, value))

    @journaled("get", key=_client_key, classify=value_outcome)
    def get(self, key: bytes, *, deadline: Optional[int] = None) -> bytes:
        self.stats.gets += 1
        self._tick()
        with self._lock:
            target = self._shard_map.get(key)
        if target is None:
            raise NotFoundError(f"no shard for key {key!r}")
        lane = self.lanes[target]
        # A degraded disk is out of service for writes but still serves
        # best-effort reads of its stranded shards.
        if not (lane.in_service or lane.degraded):
            raise RetryableError(f"disk {target} is out of service")
        if lane.queue is not None:
            lane.admit(deadline)
        return self._lane_io("get", key, lane, lambda: lane.store.get(key))

    @journaled("delete", key=_client_key)
    def delete(self, key: bytes, *, deadline: Optional[int] = None) -> Dependency:
        """Remove ``key``; raises :class:`KeyNotFoundError` when absent.

        Out-of-service routing targets surface as :class:`RetryableError`
        *without* dropping the routing entry, so a retry after
        ``return_disk`` still finds the shard.  A failed tombstone write
        restores the routing entry for the same reason.
        """
        self.stats.deletes += 1
        self._tick()
        with self._lock:
            target = self._shard_map.get(key)
            if target is None:
                raise KeyNotFoundError(f"no shard for key {key!r}")
            lane = self.lanes[target]
            if not lane.in_service:
                raise RetryableError(f"disk {target} is out of service")
        # Admission runs before the routing entry is dropped: a shed
        # delete leaves the shard fully routed and untouched.
        if lane.queue is not None:
            lane.admit(deadline)
        with self._lock:
            if self._shard_map.get(key) != target:
                raise KeyNotFoundError(f"no shard for key {key!r}")
            del self._shard_map[key]
        try:
            return self._lane_io(
                "delete", key, lane, lambda: lane.store.delete(key)
            )
        except (RetryableError, IoError):
            with self._lock:
                self._shard_map.setdefault(key, target)
            raise

    @journaled("contains", key=_client_key, classify=bool_outcome)
    def contains(self, key: bytes) -> bool:
        """Whether this node currently routes ``key``."""
        with self._lock:
            return key in self._shard_map

    @journaled("flush")
    def flush(self) -> NodeDependency:
        """Flush every in-service disk; the combined durability dependency."""
        self._tick()
        recorder = self.recorder
        with recorder.span("node.flush") if recorder.enabled else NULL_SPAN:
            return NodeDependency(
                self._each_in_service(lambda store: store.flush())
            )

    @journaled("drain")
    def drain(self) -> None:
        """Write back everything pending on every in-service disk."""
        self._tick()
        self._each_in_service(lambda store: store.drain())

    def _each_in_service(self, fn: Callable[[ShardStore], _T]) -> List[_T]:
        """``fn`` on every in-service disk, each through its lane.

        A per-disk failure only propagates if its disk is *still* in
        service afterwards -- a disk the breaker demoted mid-pass had its
        shards migrated, so the node as a whole made forward progress.
        """
        results: List[_T] = []
        errors: List[Tuple[DiskLane, ShardStoreError]] = []
        for lane in self.lanes:
            if not lane.in_service:
                continue
            try:
                results.append(lane.io(lambda: fn(lane.store)))
            except (RetryableError, IoError) as exc:
                errors.append((lane, exc))
        for lane, exc in errors:
            if lane.in_service:
                raise exc
        return results

    # ------------------------------------------------------------------
    # control plane

    @journaled("keys", classify=keys_outcome)
    def keys(self) -> List[bytes]:
        """Every shard id this node currently routes.

        The correct implementation snapshots under the node lock; fault #13
        iterates the live routing table with preemption points, racing
        concurrent removals.
        """
        if self.faults.enabled(Fault.LIST_REMOVE_RACE):
            self.recorder.fault_event(
                Fault.LIST_REMOVE_RACE,
                "listing iterates the routing table without the node lock",
            )
            out: List[bytes] = []
            for key in self._shard_map:  # no lock: mutations race with us
                yield_point("keys: unlocked iteration")
                out.append(key)
            return sorted(out)
        with self._lock:
            return sorted(self._shard_map)

    def _owned(self, disk_id: int) -> List[bytes]:
        return sorted(key for key, d in self._shard_map.items() if d == disk_id)

    def _rehome(self, key: bytes, value: bytes) -> None:
        """Write a migrating shard to a healthy disk and re-route it."""
        target = self._pick_target(key)
        self.lanes[target].store.put(key, value)
        self._shard_map[key] = target
        self.stats.migrations += 1

    def _last_in_service(self) -> bool:
        return sum(lane.in_service for lane in self.lanes) == 1

    # The migration's store-level get/put traffic is nested (invisible) and
    # the key-value mapping is unchanged, matching the reference model.
    @journaled(
        "remove_disk",
        check=_check_disk,
        fields=_disk_field,
        classify=lambda migrated: {"migrated": migrated},
    )
    def remove_disk(self, disk_id: int) -> int:
        """Take a disk out of service, migrating its shards; returns the
        number of shards migrated."""
        lane = self.lanes[disk_id]
        with self._lock:
            if not lane.in_service:
                raise InvalidRequestError(f"disk {disk_id} already removed")
            if self._last_in_service():
                raise InvalidRequestError("cannot remove the last disk")
            owned = self._owned(disk_id)
            self._removed_routing[disk_id] = {key: disk_id for key in owned}
            lane.in_service = False
            for key in owned:
                self._rehome(
                    key, lane.locked_io(lambda k=key: lane.store.get(k))
                )
        return len(owned)

    @journaled("return_disk", check=_check_disk, fields=_disk_field)
    def return_disk(self, disk_id: int) -> None:
        """Bring a previously removed disk back into service.

        The disk's old shards were migrated away at removal; routing must
        not change when it returns.  Fault #4 merges the stale pre-removal
        routing back in, pointing reads at the returned disk's old data and
        losing every write made while it was away.
        """
        lane = self.lanes[disk_id]
        with self._lock:
            if lane.in_service:
                raise InvalidRequestError(f"disk {disk_id} is in service")
            # An operator returning a disk vouches for it: clear degraded
            # mode and start its breaker (and admission queue) fresh.  A
            # breaker replaced in any state but CLOSED is journaled as a
            # reset, which the mined legality invariant treats as such.
            lane.readmit()
            lane.fresh_breaker()
            stale = self._removed_routing.pop(disk_id, {})
            if self.faults.enabled(Fault.DISK_RETURN_DROPS_SHARDS):
                self.recorder.fault_event(
                    Fault.DISK_RETURN_DROPS_SHARDS,
                    f"disk {disk_id} returned; merging {len(stale)} stale "
                    "routing entries",
                )
                for key, old_disk in stale.items():
                    if key in self._shard_map:
                        self._shard_map[key] = old_disk

    @journaled(
        "migrate",
        key=_client_key,
        check=_check_disk,
        fields=_disk_field,
        classify=bool_outcome,
    )
    def migrate_shard(self, key: bytes, target: int) -> bool:
        """Move one shard to a specific disk (the paper's control-plane
        migration).  Returns False if the shard does not exist; no-op if
        it already lives on ``target``."""
        with self._lock:
            source = self._shard_map.get(key)
            if source is None:
                return False
            if not self.lanes[target].in_service:
                raise RetryableError(f"disk {target} is out of service")
            if source == target:
                return True
            origin = self.lanes[source]
            value = origin.locked_io(lambda: origin.store.get(key))
            self.lanes[target].store.put(key, value)
            self._shard_map[key] = target
            origin.store.delete(key)
            self.stats.migrations += 1
            return True

    def scrub_all(self) -> Dict[int, ScrubReport]:
        """Repair-oriented integrity pass over every in-service disk."""
        return {
            lane.disk_id: lane.store.scrub()
            for lane in self.lanes
            if lane.in_service
        }

    @journaled(
        "scrub_repair",
        classify=lambda reports: repair_outcome(*reports.values()),
    )
    def scrub_repair_all(self) -> Dict[int, RepairReport]:
        """Scrub-and-heal every in-service disk (see
        :meth:`ShardStore.scrub_repair`); failures feed the disk breaker."""
        reports: Dict[int, RepairReport] = {}
        for lane in self.lanes:
            if not lane.in_service:
                continue
            try:
                report = lane.unmetered_io(lane.store.scrub_repair)
            except (RetryableError, IoError):
                continue  # the breaker saw the failure; heal what we can
            reports[lane.disk_id] = report
            self.stats.repaired += len(report.repaired)
            self.stats.quarantined += len(report.quarantined)
        return reports

    # ------------------------------------------------------------------
    # self-healing: breaker-driven demotion and re-admission

    def _demote(self, lane: DiskLane) -> None:
        """Take a tripped disk out of service, migrating what it will yield.

        Unlike :meth:`remove_disk` (an operator action that expects a
        healthy disk), demotion tolerates per-shard read failures: shards
        the dying disk refuses to yield stay routed to it and the disk
        enters *degraded read-only* mode -- stranded reads are attempted
        best-effort, writes re-steer to healthy disks.
        """
        with self._lock:
            if not lane.in_service:
                return
            if self._last_in_service():
                # Nowhere to migrate: the last disk limps along degraded.
                lane.degraded = True
                return
            owned = self._owned(lane.disk_id)
            lane.in_service = False
            stranded = 0
            for key in owned:
                try:
                    value = lane.retry(lambda k=key: lane.store.get(k))
                except ShardStoreError:
                    stranded += 1
                    continue  # stays routed to the demoted disk
                self._rehome(key, value)
            if stranded:
                lane.degraded = True
            self.stats.demotions += 1
            self.stats.shards_stranded += stranded
            if self.recorder.enabled:
                self.recorder.event(
                    "node.disk_demoted",
                    disk=lane.disk_id,
                    migrated=len(owned) - stranded,
                    stranded=stranded,
                )

    def _readmit(self, lane: DiskLane) -> None:
        """Bring a probed-healthy disk back into service on probation.

        Routing is untouched: shards migrated away at demotion stay where
        they are, and stranded shards become fully servable again.
        """
        with self._lock:
            lane.readmit()
        self.stats.readmissions += 1

    def degraded(self, disk_id: int) -> bool:
        """Whether ``disk_id`` is in degraded read-only mode."""
        _check_disk(self, disk_id)
        return self.lanes[disk_id].degraded

    def in_service(self, disk_id: int) -> bool:
        _check_disk(self, disk_id)
        return self.lanes[disk_id].in_service

    def breaker_state(self, disk_id: int) -> BreakerState:
        _check_disk(self, disk_id)
        return self.lanes[disk_id].breaker.state

    @property
    def num_disks(self) -> int:
        return len(self.lanes)

    def route_of(self, key: bytes) -> Optional[int]:
        """The disk ``key`` currently routes to (None when unrouted).

        Checkers use this to decide whether a failed read is honest
        unavailability (the shard is stranded on a demoted/degraded disk)
        or a conformance violation on a healthy one.
        """
        validate_key(key)
        with self._lock:
            return self._shard_map.get(key)

    # ------------------------------------------------------------------
    # bulk control-plane operations

    def _bulk_race(self, op: str, count: int) -> bool:
        """Whether fault #16 is armed (noting it on a traced run)."""
        if not self.faults.enabled(Fault.BULK_CREATE_REMOVE_RACE):
            return False
        self.recorder.fault_event(
            Fault.BULK_CREATE_REMOVE_RACE,
            f"{op} of {count} shards releases the node lock between items",
        )
        return True

    @journaled(
        "bulk_create",
        check=_check_pairs,
        fields=lambda self, pairs: {
            "items": [[digest_bytes(k), digest_bytes(v)] for k, v in pairs]
        },
        classify=lambda created: {"n": created},
    )
    def bulk_create(self, pairs: List[Tuple[bytes, bytes]]) -> int:
        """Create many shards as one atomic control-plane operation.

        Fault #16 releases the node lock between items, so a concurrent
        bulk operation observes (and produces) partial states.
        """
        if self._bulk_race("bulk_create", len(pairs)):
            for key, value in pairs:
                yield_point("bulk_create: between items")
                self.put(key, value)
            return len(pairs)
        with self._lock:
            for key, value in pairs:
                target = self._write_target(key)
                self._shard_map[key] = target
                lane = self.lanes[target]
                lane.locked_io(lambda k=key, v=value: lane.store.put(k, v))
            return len(pairs)

    @journaled(
        "bulk_delete",
        check=_check_keys,
        fields=lambda self, keys: {"items": [digest_bytes(k) for k in keys]},
        classify=lambda deleted: {"n": deleted},
    )
    def bulk_delete(self, keys: List[bytes]) -> int:
        """Delete many shards as one atomic control-plane operation."""
        deleted = 0
        if self._bulk_race("bulk_delete", len(keys)):
            for key in keys:
                yield_point("bulk_delete: between items")
                try:
                    self.delete(key)
                except KeyNotFoundError:
                    continue
                deleted += 1
            return deleted
        with self._lock:
            for key in keys:
                target = self._shard_map.pop(key, None)
                if target is not None and self.lanes[target].in_service:
                    lane = self.lanes[target]
                    lane.locked_io(lambda k=key: lane.store.delete(k))
                    deleted += 1
            return deleted
