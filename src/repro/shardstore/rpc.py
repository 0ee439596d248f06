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

The request plane is also where the node's *self-healing* lives (the
tolerance side of the paper's section 4.4 failure injection):

* transient disk IO errors are retried under a bounded deterministic
  :class:`~repro.shardstore.resilience.RetryPolicy`; if they persist they
  surface as :class:`RetryableError` (never a raw transient ``IoError``);
* every final per-disk outcome feeds a per-disk
  :class:`~repro.shardstore.resilience.CircuitBreaker`; enough errors trip
  it, auto-demoting the disk via the same shard migration ``remove_disk``
  uses, and a cooldown-then-probe cycle re-admits it through probation;
* a disk whose shards cannot all be migrated (the disk is failing reads
  mid-migration) enters *degraded read-only* mode: stranded shards stay
  routed to it and are served best-effort, while writes re-steer away.

With an :class:`~repro.shardstore.resilience.AdmissionConfig` the node also
runs a *deadline-aware request plane* (brownout/overload tolerance): every
``put``/``get``/``delete`` carries a logical deadline against a per-disk
bounded admission queue; requests that cannot meet it are shed **before any
substrate IO** with typed ``OverloadedError``/``DeadlineExceededError``; a
per-disk latency EWMA (fed by the disk's op-clocked ``busy_units``, never
wall time) trips the breaker into its SLOW state, demoting browned-out
disks exactly like error trips; shed reads are hedged against a best-effort
replica shard on a healthy disk; and retries draw from an op-clocked
:class:`~repro.shardstore.resilience.RetryBudget` so shedding never turns
into a retry storm.  All of it is clocked by the node's virtual unit clock
(``arrival_interval_units`` per op), so campaigns stay byte-identical.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.concurrency.primitives import Mutex, yield_point

from .config import StoreConfig
from .dependency import Dependency
from .errors import (
    DeadlineExceededError,
    InvalidRequestError,
    IoError,
    KeyNotFoundError,
    NotFoundError,
    OverloadedError,
    RetryableError,
    ShardStoreError,
    validate_key,
)
from .faults import Fault, FaultSet
from .observability.journal import digest_bytes, digest_keys
from .resilience import (
    AdmissionConfig,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    DiskAdmission,
    RetryBudget,
    RetryPolicy,
)
from .scrub import RepairReport
from .store import ShardStore, StoreSystem

_T = TypeVar("_T")

#: Reserved shard id the breaker writes/reads/deletes to probe a disk.
PROBE_KEY = b"__breaker_probe__"


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


@dataclass
class NodeStats:
    puts: int = 0
    gets: int = 0
    deletes: int = 0
    migrations: int = 0
    retries: int = 0
    wrapped_transients: int = 0  # transient IoErrors surfaced as RetryableError
    breaker_trips: int = 0
    breaker_probes: int = 0
    readmissions: int = 0
    demotions: int = 0
    shards_stranded: int = 0
    repaired: int = 0
    quarantined: int = 0
    # Deadline-aware request plane (admission control / brownouts).
    shed_overload: int = 0  # requests shed with OverloadedError
    shed_deadline: int = 0  # requests shed with DeadlineExceededError
    hedges: int = 0  # shed gets served from a replica shard
    slow_trips: int = 0  # breaker trips into SLOW (brownout detection)
    deadline_violations: int = 0  # admitted past an already-blown deadline
    replica_writes: int = 0  # best-effort replica shards written
    replica_failures: int = 0  # replica writes/reads dropped on error
    retry_budget_exhausted: int = 0  # retries abandoned by the token bucket

    def snapshot(self) -> Dict[str, int]:
        """Request-plane totals, named for metrics exposition."""
        return {
            "node.puts": self.puts,
            "node.gets": self.gets,
            "node.deletes": self.deletes,
            "node.migrations": self.migrations,
            "node.retries": self.retries,
            "node.wrapped_transients": self.wrapped_transients,
            "node.breaker_trips": self.breaker_trips,
            "node.breaker_probes": self.breaker_probes,
            "node.readmissions": self.readmissions,
            "node.demotions": self.demotions,
            "node.shards_stranded": self.shards_stranded,
            "node.scrub_repaired": self.repaired,
            "node.scrub_quarantined": self.quarantined,
            "node.shed_overload": self.shed_overload,
            "node.shed_deadline": self.shed_deadline,
            "node.hedges": self.hedges,
            "node.slow_trips": self.slow_trips,
            "node.deadline_violations": self.deadline_violations,
            "node.replica_writes": self.replica_writes,
            "node.replica_failures": self.replica_failures,
            "node.retry_budget_exhausted": self.retry_budget_exhausted,
        }


class StorageNode:
    """A multi-disk ShardStore storage node with a steering RPC layer."""

    def __init__(
        self,
        num_disks: int = 3,
        config: Optional[StoreConfig] = None,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerConfig] = None,
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
        self.journal = base.journal
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.breaker_config = breaker if breaker is not None else BreakerConfig()
        self.systems: List[StoreSystem] = []
        for disk_id in range(num_disks):
            # retry_policy=None on purpose: the per-disk store stays
            # fail-fast because the node retries once, at its own layer.
            cfg = replace(base, seed=base.seed + disk_id + 1, retry_policy=None)
            self.systems.append(StoreSystem(cfg))
        self._in_service: List[bool] = [True] * num_disks
        self._degraded: List[bool] = [False] * num_disks
        self._shard_map: Dict[bytes, int] = {}
        # Fault #4's stale state: routing entries saved at removal time.
        self._removed_routing: Dict[int, Dict[bytes, int]] = {}
        self._lock = Mutex(None, name="storage-node")
        self.stats = NodeStats()
        self._breakers: List[CircuitBreaker] = [
            CircuitBreaker(self.breaker_config) for _ in range(num_disks)
        ]
        if self.journal is not None:
            for disk_id, brk in enumerate(self._breakers):
                brk.on_transition = self._journal_breaker_hook(disk_id)
        self._op_count = 0
        # Deadline-aware request plane: None keeps the historical
        # no-deadline behaviour (and zero overhead on the hot path).
        self.admission = admission
        self._admissions: List[DiskAdmission] = (
            [DiskAdmission(admission) for _ in range(num_disks)]
            if admission is not None
            else []
        )
        self._retry_budget: Optional[RetryBudget] = (
            RetryBudget(admission.retry_budget, admission.retry_refill_units)
            if admission is not None
            else None
        )
        # Virtual unit clock for admission math; advances
        # arrival_interval_units per request-plane op unless arrivals are
        # held (an injected overload burst).
        self._clock = 0
        self._held_arrivals = 0
        # Best-effort replica shards backing hedged reads: key -> disk id.
        # An entry is dropped on *any* replica-side failure so a hedge can
        # never serve stale bytes.
        self._replica_map: Dict[bytes, int] = {}

    # ------------------------------------------------------------------
    # request plane

    def _store(self, disk_id: int) -> ShardStore:
        return self.systems[disk_id].store

    # -- evidence-plane plumbing ---------------------------------------

    def _journal_breaker_hook(
        self, disk_id: int
    ) -> Callable[[BreakerState, BreakerState], None]:
        """Journal every breaker transition as a standalone record.

        Written in transition order, so the invariant miner can check the
        breaker state machine's legality per disk from the journal alone.
        """

        def hook(old: BreakerState, new: BreakerState) -> None:
            assert self.journal is not None
            self.journal.record_op(
                "breaker",
                disk=disk_id,
                **{"from": old.value, "to": new.value},
            )

        return hook

    # -- resilience plumbing -------------------------------------------

    def _tick(self) -> None:
        """Advance the node's logical op clock and probe cooled-down disks.

        The breaker is clocked by this counter, not wall time, so the whole
        trip/cooldown/probe/probation cycle is deterministic under the
        validation harnesses.  The admission clock advances in lockstep
        (``arrival_interval_units`` per op) unless arrivals are held by an
        injected overload burst, in which case completed work outpaces the
        frozen clock and the backlog builds exactly as a real burst would.
        """
        self._op_count += 1
        if self.admission is not None:
            if self._held_arrivals > 0:
                self._held_arrivals -= 1
            else:
                self._clock += self.admission.arrival_interval_units
        if not self.breaker_config.enabled:
            return
        for disk_id, breaker in enumerate(self._breakers):
            if breaker.should_probe(self._op_count):
                self._probe_disk(disk_id)

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
        self._clock += units
        self._held_arrivals = 0

    def _retry(self, disk_id: int, fn: Callable[[], _T]) -> _T:
        def note(failures: int, backoff: int, exc: IoError) -> None:
            self.stats.retries += 1
            if self.journal is not None:
                self.journal.note_retry()
            if self.recorder.enabled:
                self.recorder.count("node.retries")
                self.recorder.event(
                    "node.retry",
                    disk=disk_id,
                    attempt=failures,
                    backoff=backoff,
                    error=str(exc),
                )

        return self.retry_policy.call(
            fn, on_retry=note, should_retry=self._acquire_retry_token
        )

    def _acquire_retry_token(self) -> bool:
        """Retry-storm control: spend one op-clocked retry-budget token."""
        if self._retry_budget is None:
            return True
        if self._retry_budget.acquire(self._clock):
            return True
        self.stats.retry_budget_exhausted += 1
        if self.recorder.enabled:
            self.recorder.count("node.retry_budget_exhausted")
        return False

    def _disk_io(self, disk_id: int, fn: Callable[[], _T]) -> _T:
        """Run a per-disk store operation with retries and health tracking.

        The error contract (see :mod:`repro.errors`): a transient
        :class:`IoError` that survives the retry budget surfaces as
        :class:`RetryableError`; a non-transient one propagates as-is.
        Every *final* outcome (not individual retry attempts) feeds the
        disk's circuit breaker.
        """
        try:
            result = self._retry(disk_id, fn)
        except IoError as exc:
            self._record_failure(disk_id)
            if exc.transient:
                self.stats.wrapped_transients += 1
                if self.recorder.enabled:
                    self.recorder.count("node.wrapped_transients")
                raise RetryableError(
                    f"disk {disk_id}: transient IO failure persisted past "
                    f"{self.retry_policy.max_attempts} attempts: {exc}"
                ) from exc
            raise
        self._record_success(disk_id)
        return result

    def _record_success(self, disk_id: int) -> None:
        self._breakers[disk_id].record_success(self._op_count)

    def _record_failure(self, disk_id: int) -> None:
        breaker = self._breakers[disk_id]
        tripped = breaker.record_failure(self._op_count)
        if self.recorder.enabled:
            self.recorder.gauge(
                f"node.disk{disk_id}.error_rate",
                breaker.health.error_rate(),
            )
        if tripped:
            self.stats.breaker_trips += 1
            if self.recorder.enabled:
                self.recorder.count("node.breaker_trips")
                self.recorder.event(
                    "node.breaker_trip", disk=disk_id, op=self._op_count
                )
            self._demote(disk_id)

    # -- deadline-aware admission plumbing -----------------------------

    def _pending_cost(self, disk_id: int) -> int:
        """Writeback cost already queued ahead of a new request, in units.

        Discounted by ``background_weight_shift``: queued records are
        background throughput work, overlapped with foreground requests.
        """
        cost = self._store(disk_id).scheduler.pending_cost_units()
        if self.admission is None:
            return cost
        return cost >> self.admission.background_weight_shift

    def _admit(self, disk_id: int, deadline: Optional[int]) -> None:
        """Admit or shed a request against ``disk_id``'s virtual queue.

        Sheds raise typed errors **before any substrate IO**, so a shed
        request provably left the store unchanged.  With shedding disabled
        (the campaign's negative control) everything is admitted, but a
        request whose backlog already exceeds its deadline is counted as a
        deadline violation -- the monotonic counter the brownout gate
        checks.
        """
        if self.admission is None:
            return
        limit = deadline if deadline is not None else self.admission.deadline_units
        if limit <= 0:
            raise InvalidRequestError("deadline must be positive")
        queue = self._admissions[disk_id]
        try:
            backlog = queue.admit(self._clock, limit, self._pending_cost(disk_id))
        except OverloadedError:
            self.stats.shed_overload += 1
            if self.recorder.enabled:
                self.recorder.count("node.shed_overload")
                self.recorder.event("node.shed", disk=disk_id, kind="overload")
            raise
        except DeadlineExceededError:
            self.stats.shed_deadline += 1
            if self.recorder.enabled:
                self.recorder.count("node.shed_deadline")
                self.recorder.event("node.shed", disk=disk_id, kind="deadline")
            raise
        if backlog > limit:
            # Only reachable with shedding off: the queue model knew this
            # request could not meet its deadline, yet it ran anyway.
            self.stats.deadline_violations += 1
            if self.recorder.enabled:
                self.recorder.count("node.deadline_violations")

    def _charge_units(self, disk_id: int, busy_delta: int, read_delta: int) -> int:
        """Virtual-queue charge for a measured IO burst.

        Reads are foreground data-path work and bill at full cost; writes
        and resets are writeback/GC throughput the device overlaps with
        foreground requests, billed at ``1/2**background_weight_shift``.
        Without the split, one healthy reclaim churn (hundreds of queued
        writes pumped inline) would look like a brownout.
        """
        assert self.admission is not None
        read_cost = min(
            busy_delta, read_delta * self._store(disk_id).disk.latency_units
        )
        write_cost = busy_delta - read_cost
        return read_cost + (write_cost >> self.admission.background_weight_shift)

    def _measured_io(self, disk_id: int, fn: Callable[[], _T]) -> _T:
        """Run ``fn`` under :meth:`_disk_io`, charging measured cost.

        The disk's ``busy_units``/IO-count deltas across the call feed the
        admission queue (``busy_until``) and the per-IO latency EWMA; a
        sustained-slow EWMA trips the breaker into SLOW, demoting the disk
        like an error trip would.
        """
        if self.admission is None:
            return self._disk_io(disk_id, fn)
        stats = self._store(disk_id).disk.stats
        busy_before = stats.busy_units
        reads_before = stats.reads
        ios_before = stats.reads + stats.writes + stats.resets
        queue = self._admissions[disk_id]
        queue.inflight += 1
        try:
            return self._disk_io(disk_id, fn)
        finally:
            queue.inflight -= 1
            busy_delta = stats.busy_units - busy_before
            io_delta = stats.reads + stats.writes + stats.resets - ios_before
            charge = self._charge_units(
                disk_id, busy_delta, stats.reads - reads_before
            )
            if queue.complete(
                self._clock, busy_delta, io_delta, charge_units=charge
            ):
                self._trip_slow(disk_id)

    def _trip_slow(self, disk_id: int) -> None:
        """Brownout detected: trip the breaker SLOW and demote the disk."""
        breaker = self._breakers[disk_id]
        if not self.breaker_config.enabled:
            return
        if breaker.state is not BreakerState.CLOSED:
            return
        breaker.trip_slow(self._op_count)
        self.stats.breaker_trips += 1
        self.stats.slow_trips += 1
        if self.recorder.enabled:
            self.recorder.count("node.breaker_trips")
            self.recorder.count("node.slow_trips")
            self.recorder.event(
                "node.breaker_trip_slow",
                disk=disk_id,
                op=self._op_count,
                ewma_milli=self._admissions[disk_id].ewma.milli,
            )
        self._demote(disk_id)

    # -- best-effort replication / hedged reads ------------------------

    def _replica_target(self, key: bytes, primary: int) -> Optional[int]:
        """A healthy disk (never ``primary``) to hold ``key``'s replica."""
        for probe in range(1, len(self.systems)):
            disk_id = (primary + probe) % len(self.systems)
            if self._in_service[disk_id]:
                return disk_id
        return None

    def _replicate(self, key: bytes, value: bytes, primary: int) -> None:
        """Best-effort replica write backing hedged reads.

        Failure is absorbed (the primary write already succeeded) but the
        replica entry is dropped, so a stale replica is never hedged to.
        """
        if self.admission is None or not self.admission.hedge_reads:
            return
        replica = self._replica_target(key, primary)
        if replica is None:
            self._replica_map.pop(key, None)
            return
        try:
            self._store(replica).put(key, value)
        except ShardStoreError:
            self._replica_map.pop(key, None)
            self.stats.replica_failures += 1
            if self.recorder.enabled:
                self.recorder.count("node.replica_failures")
            return
        self._replica_map[key] = replica
        self.stats.replica_writes += 1
        if self.recorder.enabled:
            self.recorder.count("node.replica_writes")

    def _drop_replica(self, key: bytes, primary: int) -> None:
        """Forget ``key``'s replica and best-effort erase the copy.

        A demotion may have *migrated* the shard onto the very disk that
        held its replica, aliasing the two; erasing then would destroy the
        only live copy, so an aliased entry is only forgotten.
        """
        replica = self._replica_map.pop(key, None)
        if replica is None or replica == primary:
            return
        try:
            self._store(replica).delete(key)
        except ShardStoreError:
            # The routing entry is gone either way; a dangling copy is
            # unreachable garbage, not a correctness hazard.
            self.stats.replica_failures += 1
            if self.recorder.enabled:
                self.recorder.count("node.replica_failures")

    def _try_hedge(self, key: bytes, primary: int, deadline: Optional[int]):
        """Serve a shed ``get`` from the key's replica shard, if viable.

        Returns the value, or None when no healthy replica can answer --
        in which case the original shed error propagates.  The hedge goes
        through the replica disk's *own* admission queue: a hedge must not
        itself overload another browned-out disk.
        """
        if self.admission is None or not self.admission.hedge_reads:
            return None
        replica = self._replica_map.get(key)
        if replica is None or replica == primary:
            return None
        if not self._in_service[replica] and not self._degraded[replica]:
            return None
        try:
            self._admit(replica, deadline)
        except (OverloadedError, DeadlineExceededError):
            return None
        try:
            value = self._measured_io(
                replica, lambda: self._store(replica).get(key)
            )
        except ShardStoreError:
            self._replica_map.pop(key, None)
            self.stats.replica_failures += 1
            if self.recorder.enabled:
                self.recorder.count("node.replica_failures")
            return None
        self.stats.hedges += 1
        if self.recorder.enabled:
            self.recorder.count("node.hedges")
            self.recorder.event("node.hedged_read", disk=replica, primary=primary)
        return value

    def put(
        self, key: bytes, value: bytes, *, deadline: Optional[int] = None
    ) -> Dependency:
        # Request validation belongs at the RPC boundary: an invalid key
        # must be rejected identically by every operation, not only by the
        # ones whose routing happens to reach a per-disk store.
        validate_key(key)
        if self.journal is not None:
            return self.journal.call(
                "put",
                lambda: self._put_rpc(key, value, deadline),
                key=key,
                value=value,
            )
        return self._put_rpc(key, value, deadline)

    def _put_rpc(
        self, key: bytes, value: bytes, deadline: Optional[int]
    ) -> Dependency:
        self.stats.puts += 1
        self._tick()
        with self._lock:
            target = self._shard_map.get(key)
            if target is None or not self._in_service[target]:
                target = self._pick_target(key)
        # Admission precedes the routing write: a shed put must not leave
        # a dangling route to a shard that was never stored (``contains``
        # would otherwise report a key the store never accepted).
        self._admit(target, deadline)
        with self._lock:
            self._shard_map[key] = target
        try:
            if not self.recorder.enabled:
                dep = self._measured_io(
                    target, lambda: self._store(target).put(key, value)
                )
            else:
                with self.recorder.span("node.put", key=repr(key), disk=target):
                    dep = self._measured_io(
                        target, lambda: self._store(target).put(key, value)
                    )
        except ShardStoreError:
            # The primary outcome is uncertain; a replica from an earlier
            # put could now be stale, and a hedge must never serve it.
            self._replica_map.pop(key, None)
            raise
        self._replicate(key, value, target)
        return dep

    def get(self, key: bytes, *, deadline: Optional[int] = None) -> bytes:
        validate_key(key)
        if self.journal is not None:
            return self.journal.call(
                "get",
                lambda: self._get_rpc(key, deadline),
                key=key,
                classify=lambda value: {"value": digest_bytes(value)},
            )
        return self._get_rpc(key, deadline)

    def _get_rpc(self, key: bytes, deadline: Optional[int]) -> bytes:
        self.stats.gets += 1
        self._tick()
        with self._lock:
            target = self._shard_map.get(key)
        if target is None:
            raise NotFoundError(f"no shard for key {key!r}")
        if not self._in_service[target] and not self._degraded[target]:
            raise RetryableError(f"disk {target} is out of service")
        # A degraded disk is out of service for writes but still serves
        # best-effort reads of its stranded shards.
        try:
            self._admit(target, deadline)
        except (OverloadedError, DeadlineExceededError):
            # The primary queue cannot meet the deadline; hedge against
            # the key's replica shard on a healthy disk before giving up.
            hedged = self._try_hedge(key, target, deadline)
            if hedged is not None:
                return hedged
            raise
        if not self.recorder.enabled:
            return self._measured_io(target, lambda: self._store(target).get(key))
        with self.recorder.span("node.get", key=repr(key), disk=target):
            return self._measured_io(target, lambda: self._store(target).get(key))

    def delete(self, key: bytes, *, deadline: Optional[int] = None) -> Dependency:
        """Remove ``key``; raises :class:`KeyNotFoundError` when absent.

        Out-of-service routing targets surface as :class:`RetryableError`
        *without* dropping the routing entry, so a retry after
        ``return_disk`` still finds the shard.  A failed tombstone write
        restores the routing entry for the same reason.
        """
        validate_key(key)
        if self.journal is not None:
            return self.journal.call(
                "delete", lambda: self._delete_rpc(key, deadline), key=key
            )
        return self._delete_rpc(key, deadline)

    def _delete_rpc(self, key: bytes, deadline: Optional[int]) -> Dependency:
        self.stats.deletes += 1
        self._tick()
        with self._lock:
            target = self._shard_map.get(key)
            if target is None:
                raise KeyNotFoundError(f"no shard for key {key!r}")
            if not self._in_service[target]:
                raise RetryableError(f"disk {target} is out of service")
        # Admission runs before the routing entry is dropped: a shed
        # delete leaves the shard fully routed and untouched.
        self._admit(target, deadline)
        with self._lock:
            if self._shard_map.get(key) != target:
                raise KeyNotFoundError(f"no shard for key {key!r}")
            del self._shard_map[key]
        # The replica copy dies with the routing entry, never after it:
        # a hedge must not resurrect a deleted key.
        self._drop_replica(key, target)
        try:
            if not self.recorder.enabled:
                return self._measured_io(
                    target, lambda: self._store(target).delete(key)
                )
            with self.recorder.span("node.delete", key=repr(key), disk=target):
                return self._measured_io(
                    target, lambda: self._store(target).delete(key)
                )
        except (RetryableError, IoError):
            with self._lock:
                self._shard_map.setdefault(key, target)
            raise

    def _pick_target(self, key: bytes) -> int:
        primary = _steer(key, len(self.systems))
        for probe in range(len(self.systems)):
            disk_id = (primary + probe) % len(self.systems)
            if self._in_service[disk_id]:
                return disk_id
        raise RetryableError("no disk in service")

    # ------------------------------------------------------------------
    # control plane

    def keys(self) -> List[bytes]:
        """Every shard id this node currently routes.

        The correct implementation snapshots under the node lock; fault #13
        iterates the live routing table with preemption points, racing
        concurrent removals.
        """
        if self.journal is not None:
            return self.journal.call(
                "keys",
                self._keys_rpc,
                classify=lambda ks: {"n": len(ks), "keys_digest": digest_keys(ks)},
            )
        return self._keys_rpc()

    def _keys_rpc(self) -> List[bytes]:
        if self.faults.enabled(Fault.LIST_REMOVE_RACE):
            if self.recorder.enabled:
                self.recorder.fault_event(
                    Fault.LIST_REMOVE_RACE,
                    "API",
                    "listing iterates the routing table without the node lock",
                )
            out: List[bytes] = []
            for key in self._shard_map:  # no lock: mutations race with us
                yield_point("keys: unlocked iteration")
                out.append(key)
            return sorted(out)
        with self._lock:
            return sorted(self._shard_map)

    def remove_disk(self, disk_id: int) -> int:
        """Take a disk out of service, migrating its shards; returns the
        number of shards migrated."""
        self._check_disk(disk_id)
        if self.journal is not None:
            # Journaled as a control-plane op: the migration's store-level
            # get/put traffic is nested (invisible) and the key-value
            # mapping is unchanged, matching the reference model.
            return self.journal.call(
                "remove_disk",
                lambda: self._remove_disk_rpc(disk_id),
                fields={"disk": disk_id},
                classify=lambda migrated: {"migrated": migrated},
            )
        return self._remove_disk_rpc(disk_id)

    def _remove_disk_rpc(self, disk_id: int) -> int:
        with self._lock:
            if not self._in_service[disk_id]:
                raise InvalidRequestError(f"disk {disk_id} already removed")
            if sum(self._in_service) == 1:
                raise InvalidRequestError("cannot remove the last disk")
            owned = sorted(
                key for key, d in self._shard_map.items() if d == disk_id
            )
            self._removed_routing[disk_id] = {key: disk_id for key in owned}
            self._in_service[disk_id] = False
            migrated = 0
            for key in owned:
                value = self._wrap_transient(
                    lambda k=key: self._store(disk_id).get(k)
                )
                target = self._pick_target(key)
                self._store(target).put(key, value)
                self._shard_map[key] = target
                migrated += 1
                self.stats.migrations += 1
        return migrated

    def return_disk(self, disk_id: int) -> None:
        """Bring a previously removed disk back into service.

        The disk's old shards were migrated away at removal; routing must
        not change when it returns.  Fault #4 merges the stale pre-removal
        routing back in, pointing reads at the returned disk's old data and
        losing every write made while it was away.
        """
        self._check_disk(disk_id)
        if self.journal is not None:
            self.journal.call(
                "return_disk",
                lambda: self._return_disk_rpc(disk_id),
                fields={"disk": disk_id},
            )
            return
        self._return_disk_rpc(disk_id)

    def _return_disk_rpc(self, disk_id: int) -> None:
        with self._lock:
            if self._in_service[disk_id]:
                raise InvalidRequestError(f"disk {disk_id} is in service")
            self._in_service[disk_id] = True
            # An operator returning a disk vouches for it: clear degraded
            # mode and start its breaker (and admission queue) fresh.
            self._degraded[disk_id] = False
            old_state = self._breakers[disk_id].state
            self._breakers[disk_id] = CircuitBreaker(self.breaker_config)
            if self.journal is not None:
                self._breakers[disk_id].on_transition = (
                    self._journal_breaker_hook(disk_id)
                )
                if old_state is not BreakerState.CLOSED:
                    # The fresh breaker starts CLOSED by operator fiat, not
                    # through the state machine; mark the reset so the
                    # mined legality invariant treats it as an edge reset.
                    self.journal.record_op(
                        "breaker",
                        disk=disk_id,
                        reset=True,
                        **{"from": old_state.value, "to": "closed"},
                    )
            if self._admissions:
                self._admissions[disk_id].reset(self._clock)
            stale = self._removed_routing.pop(disk_id, {})
            if self.faults.enabled(Fault.DISK_RETURN_DROPS_SHARDS):
                if self.recorder.enabled:
                    self.recorder.fault_event(
                        Fault.DISK_RETURN_DROPS_SHARDS,
                        "API",
                        f"disk {disk_id} returned; merging {len(stale)} stale "
                        "routing entries",
                    )
                for key, old_disk in stale.items():
                    if key in self._shard_map:
                        self._shard_map[key] = old_disk

    def _check_disk(self, disk_id: int) -> None:
        if not 0 <= disk_id < len(self.systems):
            raise InvalidRequestError(f"no disk {disk_id}")

    def migrate_shard(self, key: bytes, target: int) -> bool:
        """Move one shard to a specific disk (the paper's control-plane
        migration).  Returns False if the shard does not exist; no-op if
        it already lives on ``target``."""
        self._check_disk(target)
        validate_key(key)
        if self.journal is not None:
            return self.journal.call(
                "migrate",
                lambda: self._migrate_shard_rpc(key, target),
                key=key,
                fields={"disk": target},
                classify=lambda moved: {"result": bool(moved)},
            )
        return self._migrate_shard_rpc(key, target)

    def _migrate_shard_rpc(self, key: bytes, target: int) -> bool:
        with self._lock:
            source = self._shard_map.get(key)
            if source is None:
                return False
            if not self._in_service[target]:
                raise RetryableError(f"disk {target} is out of service")
            if source == target:
                return True
            value = self._wrap_transient(lambda: self._store(source).get(key))
            self._store(target).put(key, value)
            self._shard_map[key] = target
            self._store(source).delete(key)
            self.stats.migrations += 1
            return True

    def _wrap_transient(self, fn: Callable[[], _T]) -> _T:
        """The error contract for under-lock store IO (no breaker feed:
        demotion re-acquires the node lock, so locked paths only wrap)."""
        try:
            return fn()
        except IoError as exc:
            if exc.transient:
                self.stats.wrapped_transients += 1
                raise RetryableError(
                    f"transient IO failure during control-plane operation: {exc}"
                ) from exc
            raise

    def scrub_all(self):
        """Repair-oriented integrity pass over every in-service disk."""
        reports = {}
        for disk_id, system in enumerate(self.systems):
            if self._in_service[disk_id]:
                reports[disk_id] = system.store.scrub()
        return reports

    def scrub_repair_all(self) -> Dict[int, RepairReport]:
        """Scrub-and-heal every in-service disk (see
        :meth:`ShardStore.scrub_repair`); failures feed the disk breaker."""
        if self.journal is not None:
            return self.journal.call(
                "scrub_repair",
                self._scrub_repair_all_rpc,
                classify=lambda reports: {
                    "repaired": sorted(
                        digest_bytes(k)
                        for report in reports.values()
                        for k in report.repaired
                    )
                    or None,
                    "quarantined": sorted(
                        digest_bytes(k)
                        for report in reports.values()
                        for k in report.quarantined
                    )
                    or None,
                },
            )
        return self._scrub_repair_all_rpc()

    def _scrub_repair_all_rpc(self) -> Dict[int, RepairReport]:
        reports: Dict[int, RepairReport] = {}
        for disk_id, system in enumerate(self.systems):
            if not self._in_service[disk_id]:
                continue
            try:
                report = self._disk_io(disk_id, system.store.scrub_repair)
            except (RetryableError, IoError):
                continue  # the breaker saw the failure; heal what we can
            reports[disk_id] = report
            self.stats.repaired += len(report.repaired)
            self.stats.quarantined += len(report.quarantined)
        return reports

    # ------------------------------------------------------------------
    # self-healing: breaker-driven demotion, probe, re-admission

    def _demote(self, disk_id: int) -> None:
        """Take a tripped disk out of service, migrating what it will yield.

        Unlike :meth:`remove_disk` (an operator action that expects a
        healthy disk), demotion tolerates per-shard read failures: shards
        the dying disk refuses to yield stay routed to it and the disk
        enters *degraded read-only* mode -- stranded reads are attempted
        best-effort, writes re-steer to healthy disks.
        """
        with self._lock:
            if not self._in_service[disk_id]:
                return
            if sum(self._in_service) == 1:
                # Nowhere to migrate: the last disk limps along degraded.
                self._degraded[disk_id] = True
                return
            owned = sorted(
                key for key, d in self._shard_map.items() if d == disk_id
            )
            self._in_service[disk_id] = False
            migrated = 0
            stranded = 0
            for key in owned:
                try:
                    value = self._retry(
                        disk_id, lambda k=key: self._store(disk_id).get(k)
                    )
                except ShardStoreError:
                    stranded += 1
                    continue  # stays routed to the demoted disk
                target = self._pick_target(key)
                self._store(target).put(key, value)
                self._shard_map[key] = target
                migrated += 1
                self.stats.migrations += 1
            if stranded:
                self._degraded[disk_id] = True
            self.stats.demotions += 1
            self.stats.shards_stranded += stranded
            if self.recorder.enabled:
                self.recorder.event(
                    "node.disk_demoted",
                    disk=disk_id,
                    migrated=migrated,
                    stranded=stranded,
                )

    def _probe_disk(self, disk_id: int) -> None:
        """Health-check a tripped disk end to end; re-admit on success.

        The probe exercises the whole medium path -- write, drain to disk,
        read back, delete, scrub -- because a disk with no shards left
        would otherwise pass a scrub-only probe vacuously.
        """
        breaker = self._breakers[disk_id]
        breaker.begin_probe()
        self.stats.breaker_probes += 1
        if self.recorder.enabled:
            self.recorder.count("node.breaker_probes")
        store = self._store(disk_id)
        disk_stats = store.disk.stats
        busy_before = disk_stats.busy_units
        ios_before = disk_stats.reads + disk_stats.writes + disk_stats.resets
        try:
            store.put(PROBE_KEY, b"probe")
            store.drain()
            ok = store.get(PROBE_KEY) == b"probe"
            store.delete(PROBE_KEY)
            store.drain()
            report = store.scrub()
            ok = ok and report.io_errors == 0 and report.clean
        except ShardStoreError:
            ok = False
        if ok and self.admission is not None:
            # A SLOW-tripped disk must also prove it is fast again: the
            # probe's measured per-IO cost stays within the budget or the
            # breaker falls back to SLOW and keeps cooling down.
            io_delta = (
                disk_stats.reads + disk_stats.writes + disk_stats.resets
            ) - ios_before
            busy_delta = disk_stats.busy_units - busy_before
            if io_delta > 0:
                per_io_milli = busy_delta * 1000 // io_delta
                ok = per_io_milli <= self.admission.probe_io_budget_milli
        breaker.on_probe(ok, self._op_count)
        if self.recorder.enabled:
            self.recorder.event("node.breaker_probe", disk=disk_id, ok=ok)
        if breaker.state is BreakerState.PROBATION:
            self._readmit(disk_id)

    def _readmit(self, disk_id: int) -> None:
        """Bring a probed-healthy disk back into service on probation.

        Routing is untouched: shards migrated away at demotion stay where
        they are, and stranded shards become fully servable again.
        """
        with self._lock:
            self._in_service[disk_id] = True
            self._degraded[disk_id] = False
            if self._admissions:
                self._admissions[disk_id].reset(self._clock)
        self.stats.readmissions += 1
        if self.recorder.enabled:
            self.recorder.count("node.readmissions")
            self.recorder.event("node.disk_readmitted", disk=disk_id)

    def degraded(self, disk_id: int) -> bool:
        """Whether ``disk_id`` is in degraded read-only mode."""
        self._check_disk(disk_id)
        return self._degraded[disk_id]

    def route_of(self, key: bytes) -> Optional[int]:
        """The disk ``key`` currently routes to (None when unrouted).

        Checkers use this to decide whether a failed read is honest
        unavailability (the shard is stranded on a demoted/degraded disk)
        or a conformance violation on a healthy one.
        """
        validate_key(key)
        with self._lock:
            return self._shard_map.get(key)

    def breaker_state(self, disk_id: int) -> BreakerState:
        self._check_disk(disk_id)
        return self._breakers[disk_id].state

    def health_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-disk breaker/health view for metrics exposition.

        Returns ``{"gauges": {...}}`` (counters are ``stats.snapshot()``):
        breaker state codes (0=closed 1=open 2=half-open 3=probation),
        sliding-window error rates, and service/degraded flags per disk.
        """
        gauges: Dict[str, float] = {}
        for disk_id, breaker in enumerate(self._breakers):
            prefix = f"node.disk{disk_id}"
            gauges[f"{prefix}.breaker_state"] = breaker.state.code
            gauges[f"{prefix}.error_rate"] = breaker.health.error_rate()
            gauges[f"{prefix}.in_service"] = float(self._in_service[disk_id])
            gauges[f"{prefix}.degraded"] = float(self._degraded[disk_id])
            if self._admissions:
                queue = self._admissions[disk_id]
                gauges[f"{prefix}.queue_backlog_units"] = float(
                    queue.backlog_units(self._clock, self._pending_cost(disk_id))
                )
                gauges[f"{prefix}.queue_depth"] = float(
                    self._store(disk_id).scheduler.pending_count
                )
                gauges[f"{prefix}.latency_ewma"] = queue.ewma.milli / 1000.0
                gauges[f"{prefix}.inflight"] = float(queue.inflight)
        if self._retry_budget is not None:
            gauges["node.retry_budget_tokens"] = float(self._retry_budget.tokens)
        return {"gauges": gauges}

    # ------------------------------------------------------------------
    # bulk control-plane operations

    def bulk_create(self, pairs: List[Tuple[bytes, bytes]]) -> int:
        """Create many shards as one atomic control-plane operation.

        Fault #16 releases the node lock between items, so a concurrent
        bulk operation observes (and produces) partial states.
        """
        if self.journal is not None:
            return self.journal.call(
                "bulk_create",
                lambda: self._bulk_create_rpc(pairs),
                fields={
                    "items": [
                        [digest_bytes(k), digest_bytes(v)] for k, v in pairs
                    ]
                },
                classify=lambda created: {"n": created},
            )
        return self._bulk_create_rpc(pairs)

    def _bulk_create_rpc(self, pairs: List[Tuple[bytes, bytes]]) -> int:
        if self.faults.enabled(Fault.BULK_CREATE_REMOVE_RACE):
            if self.recorder.enabled:
                self.recorder.fault_event(
                    Fault.BULK_CREATE_REMOVE_RACE,
                    "API",
                    f"bulk_create of {len(pairs)} shards releases the node "
                    "lock between items",
                )
            created = 0
            for key, value in pairs:
                yield_point("bulk_create: between items")
                self.put(key, value)
                created += 1
            return created
        with self._lock:
            created = 0
            for key, value in pairs:
                target = self._shard_map.get(key)
                if target is None or not self._in_service[target]:
                    target = self._pick_target(key)
                self._shard_map[key] = target
                self._wrap_transient(
                    lambda t=target, k=key, v=value: self._store(t).put(k, v)
                )
                created += 1
            return created

    def bulk_delete(self, keys: List[bytes]) -> int:
        """Delete many shards as one atomic control-plane operation."""
        if self.journal is not None:
            return self.journal.call(
                "bulk_delete",
                lambda: self._bulk_delete_rpc(keys),
                fields={"items": [digest_bytes(k) for k in keys]},
                classify=lambda deleted: {"n": deleted},
            )
        return self._bulk_delete_rpc(keys)

    def _bulk_delete_rpc(self, keys: List[bytes]) -> int:
        if self.faults.enabled(Fault.BULK_CREATE_REMOVE_RACE):
            if self.recorder.enabled:
                self.recorder.fault_event(
                    Fault.BULK_CREATE_REMOVE_RACE,
                    "API",
                    f"bulk_delete of {len(keys)} shards releases the node "
                    "lock between items",
                )
            deleted = 0
            for key in keys:
                yield_point("bulk_delete: between items")
                try:
                    self.delete(key)
                except KeyNotFoundError:
                    continue
                deleted += 1
            return deleted
        with self._lock:
            deleted = 0
            for key in keys:
                target = self._shard_map.pop(key, None)
                if target is not None and self._in_service[target]:
                    self._wrap_transient(
                        lambda t=target, k=key: self._store(t).delete(k)
                    )
                    deleted += 1
            return deleted

    # ------------------------------------------------------------------
    # maintenance passthrough

    @property
    def num_disks(self) -> int:
        return len(self.systems)

    def in_service(self, disk_id: int) -> bool:
        self._check_disk(disk_id)
        return self._in_service[disk_id]

    def contains(self, key: bytes) -> bool:
        """Whether this node currently routes ``key``."""
        validate_key(key)
        if self.journal is not None:
            return self.journal.call(
                "contains",
                lambda: self._contains_rpc(key),
                key=key,
                classify=lambda present: {"result": bool(present)},
            )
        return self._contains_rpc(key)

    def _contains_rpc(self, key: bytes) -> bool:
        with self._lock:
            return key in self._shard_map

    def flush(self) -> NodeDependency:
        """Flush every in-service disk; the combined durability dependency."""
        if self.journal is not None:
            return self.journal.call("flush", self._flush_rpc)
        return self._flush_rpc()

    def _flush_rpc(self) -> NodeDependency:
        self._tick()
        if not self.recorder.enabled:
            return self._flush()
        with self.recorder.span("node.flush"):
            return self._flush()

    def _flush(self) -> NodeDependency:
        deps, errors = self._each_in_service(lambda store: store.flush())
        self._raise_if_still_failing(errors, "flush")
        return NodeDependency([dep for dep in deps if dep is not None])

    def drain(self) -> None:
        """Write back everything pending on every in-service disk.

        Per-disk failures feed the circuit breaker; a failure only
        propagates if its disk is *still* in service afterwards -- a disk
        the breaker demoted mid-drain had its shards migrated, so the node
        as a whole made forward progress.
        """
        if self.journal is not None:
            return self.journal.call("drain", self._drain_rpc)
        return self._drain_rpc()

    def _drain_rpc(self) -> None:
        self._tick()
        _, errors = self._each_in_service(lambda store: store.drain())
        self._raise_if_still_failing(errors, "drain")

    def _each_in_service(
        self, fn: Callable[[ShardStore], _T]
    ) -> Tuple[List[Optional[_T]], List[Tuple[int, IoError]]]:
        """Apply ``fn`` per in-service disk, feeding breaker and admission.

        Flush/drain are where queued writebacks actually hit the medium, so
        with admission enabled each disk's measured cost is charged to its
        virtual queue here -- this is the main brownout signal for
        write-heavy load, since ``put`` itself only queues records.
        """
        results: List[Optional[_T]] = []
        errors: List[Tuple[int, IoError]] = []
        for disk_id, system in enumerate(self.systems):
            if not self._in_service[disk_id]:
                continue
            disk_stats = system.store.disk.stats
            busy_before = disk_stats.busy_units
            reads_before = disk_stats.reads
            ios_before = (
                disk_stats.reads + disk_stats.writes + disk_stats.resets
            )
            try:
                results.append(self._retry(disk_id, lambda s=system: fn(s.store)))
            except IoError as exc:
                self._record_failure(disk_id)
                errors.append((disk_id, exc))
                results.append(None)
            else:
                self._record_success(disk_id)
            finally:
                if self._admissions and self._in_service[disk_id]:
                    busy_delta = disk_stats.busy_units - busy_before
                    io_delta = (
                        disk_stats.reads + disk_stats.writes + disk_stats.resets
                    ) - ios_before
                    queue = self._admissions[disk_id]
                    charge = self._charge_units(
                        disk_id, busy_delta, disk_stats.reads - reads_before
                    )
                    if queue.complete(
                        self._clock, busy_delta, io_delta, charge_units=charge
                    ):
                        self._trip_slow(disk_id)
        return results, errors

    def _raise_if_still_failing(
        self, errors: List[Tuple[int, IoError]], op: str
    ) -> None:
        for disk_id, exc in errors:
            if not self._in_service[disk_id]:
                continue
            if exc.transient:
                self.stats.wrapped_transients += 1
                raise RetryableError(
                    f"disk {disk_id}: {op} failed past retries: {exc}"
                ) from exc
            raise exc
