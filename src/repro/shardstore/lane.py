"""One disk's lane through the storage node: an isolated failure domain.

The paper's node is "a shared RPC layer steering requests to isolated
per-disk failure domains" (section 2.1).  A :class:`DiskLane` is one such
domain: it owns the disk's :class:`~repro.shardstore.store.StoreSystem`,
its circuit breaker, its admission queue (with an
:class:`~repro.shardstore.resilience.AdmissionConfig`) and its
service/degraded flags.  Every store call the request plane makes on that
disk goes through :meth:`DiskLane.io` (metered), :meth:`DiskLane.unmetered_io`
(scrub passes) or :meth:`DiskLane.locked_io` (callers holding the node
lock); a breaker trip is reported to the node through
:attr:`LaneContext.on_trip`.

What the lanes of one node share -- whether retries and the breaker are
on, the admission SLO, the two logical clocks, the retry budget and the
:class:`NodeStats` counters -- lives in one :class:`LaneContext`.  The
routing table, demotion and the control plane stay in
:mod:`repro.shardstore.rpc`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, NoReturn, Optional, Tuple, TypeVar

from .errors import (
    DeadlineExceededError,
    InvalidRequestError,
    IoError,
    OverloadedError,
    RetryableError,
    ShardStoreError,
)
from .observability import exported_as, stat_counters
from .resilience import (
    BACKGROUND_WEIGHT_SHIFT,
    PROBE_IO_BUDGET_MILLI,
    RETRY_ATTEMPTS,
    TRIPPED_STATES,
    AdmissionConfig,
    BreakerState,
    CircuitBreaker,
    DiskAdmission,
    RetryBudget,
)
from .store import ShardStore, StoreSystem

_T = TypeVar("_T")

#: Reserved shard id a lane writes/reads/deletes to probe its disk.
PROBE_KEY = b"__breaker_probe__"


@dataclass
class NodeStats:
    """The request plane's counters, exported as ``node.<field>``."""

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
    # Scrub totals, by their old names.
    repaired: int = exported_as("node.scrub_repaired")
    quarantined: int = exported_as("node.scrub_quarantined")
    # Deadline-aware request plane (admission control / brownouts).
    shed_overload: int = 0  # requests shed with OverloadedError
    shed_deadline: int = 0  # requests shed with DeadlineExceededError
    slow_trips: int = 0  # breaker trips into SLOW (brownout detection)
    deadline_violations: int = 0  # admitted past an already-blown deadline
    retry_budget_exhausted: int = 0  # retries abandoned by the token bucket

    def snapshot(self) -> Dict[str, int]:
        """Request-plane totals by exported name, zeros included."""
        return dict(stat_counters("node", self))


@dataclass
class LaneContext:
    """What the lanes of one node share: switches, clocks, counters, hooks."""

    #: Retry transient IO errors (:data:`RETRY_ATTEMPTS` tries) or fail fast.
    retries: bool
    #: Trip, demote, probe and readmit disks, or never trip.
    breaker: bool
    admission: Optional[AdmissionConfig]
    recorder: Any
    #: The node's reaction to a breaker trip (demotion).
    on_trip: Callable[["DiskLane"], None]
    #: The evidence journal's hooks; None without a journal.
    note_retry: Optional[Callable[[], None]] = None
    on_transition: Optional[
        Callable[[int, BreakerState, BreakerState, Optional[bool]], None]
    ] = None
    stats: NodeStats = field(default_factory=NodeStats)
    #: Request-plane ops so far: the breakers' clock (never wall time).
    ops: int = 0
    #: Virtual unit clock for admission math; the node advances it
    #: :data:`ARRIVAL_INTERVAL_UNITS` per op unless arrivals are held.
    clock: int = 0
    #: Lanes whose breaker is tripped (OPEN or SLOW), kept by every
    #: breaker transition: only these can be due a probe.
    tripped: int = 0

    def __post_init__(self) -> None:
        self.attempts = RETRY_ATTEMPTS if self.retries else 1
        self.retry_budget: Optional[RetryBudget] = (
            None if self.admission is None else RetryBudget()
        )

    def retry_token(self) -> bool:
        """Retry-storm control: spend one op-clocked retry-budget token."""
        if self.retry_budget is None or self.retry_budget.acquire(self.clock):
            return True
        self.stats.retry_budget_exhausted += 1
        return False


class DiskLane:
    """One disk behind the RPC layer: store, breaker, queue, flags."""

    def __init__(self, disk_id: int, system: StoreSystem, ctx: LaneContext) -> None:
        self.disk_id = disk_id
        self.system = system
        self.ctx = ctx
        self.in_service = True
        #: Demoted with stranded shards: out of service for writes, still
        #: serving best-effort reads.
        self.degraded = False
        self.queue: Optional[DiskAdmission] = (
            DiskAdmission(ctx.admission) if ctx.admission is not None else None
        )
        #: ``io(fn)``: run a request's store operation on this disk --
        #: :meth:`unmetered_io`, inside :meth:`_metered_io`'s bracket when
        #: the lane has a queue.  Chosen once: the queue is the lane's for
        #: life.
        self.io: Callable[[Callable[[], Any]], Any] = (
            self.unmetered_io if self.queue is None else self._metered_io
        )
        self.breaker = CircuitBreaker(ctx.breaker, self._transition)

    @property
    def store(self) -> ShardStore:
        return self.system.store

    def fresh_breaker(self) -> None:
        """Start a new CLOSED breaker: an operator returning the disk
        vouches for it.  Replacing one that is not CLOSED is reported as a
        ``reset`` transition, since it is not an edge of the state machine.
        """
        old = self.breaker.state
        self.breaker = CircuitBreaker(self.ctx.breaker, self._transition)
        if old is not BreakerState.CLOSED:
            self._transition(old, BreakerState.CLOSED, reset=True)

    def _transition(
        self, old: BreakerState, new: BreakerState, reset: Optional[bool] = None
    ) -> None:
        """Every state change of this lane's breaker: keep the tripped count,
        then tell the journal."""
        ctx = self.ctx
        ctx.tripped += (new in TRIPPED_STATES) - (old in TRIPPED_STATES)
        if ctx.on_transition is not None:
            ctx.on_transition(self.disk_id, old, new, reset)

    def readmit(self) -> None:
        """Back in service: stranded shards are fully servable again and
        the queue forgets its backlog and latency history."""
        self.in_service = True
        self.degraded = False
        if self.queue is not None:
            self.queue.reset(self.ctx.clock)

    # ------------------------------------------------------------------
    # store IO

    def retry(self, fn: Callable[[], _T], failed: Optional[IoError] = None) -> _T:
        """``fn`` under the node's retries and budget; errors propagate raw.

        The node's one retry loop.  A transient :class:`IoError` is retried
        at once (nothing sleeps) until :attr:`LaneContext.attempts` calls
        have failed or the retry budget refuses a token; a non-transient
        one never is.  Demotion's under-lock reads call it as is.  A caller
        that makes the first attempt itself, as a plain call, passes the
        error it raised as ``failed``: the loop then starts from that
        failure, so a call that succeeds first time never enters it.
        """
        ctx = self.ctx
        failures = 0
        while True:
            if failed is None:
                try:
                    return fn()
                except IoError as exc:
                    failed = exc
            # Judged outside the handler, so a retry's error does not chain
            # to the one before it.
            exc, failed = failed, None
            if not exc.transient:
                raise exc
            failures += 1
            if failures >= ctx.attempts or not ctx.retry_token():
                raise exc
            self._note_retry(failures, exc)

    def _note_retry(self, failures: int, exc: IoError) -> None:
        ctx = self.ctx
        ctx.stats.retries += 1
        if ctx.note_retry is not None:
            ctx.note_retry()
        if ctx.recorder.enabled:
            ctx.recorder.event(
                "node.retry", disk=self.disk_id, attempt=failures, error=str(exc)
            )

    def _metered_io(self, fn: Callable[[], _T]) -> _T:
        """:meth:`unmetered_io` with admission: the disk's busy/IO deltas
        across the call are charged to the queue whether it succeeded or
        not -- flush and drain matter most, since ``put`` only queues
        records -- and a sustained-slow EWMA trips the breaker SLOW.
        """
        queue = self.queue
        spent = self._meter()
        queue.inflight += 1
        try:
            return self.unmetered_io(fn)
        finally:
            queue.inflight -= 1
            self._charge(queue, *spent())

    def unmetered_io(self, fn: Callable[[], _T]) -> _T:
        """Retries, breaker feed and typed errors, but no queue charge.

        For a scrub pass: it reads every chunk, and billing that to the
        foreground queue would shed the very requests it runs beside.  The
        error contract (see :mod:`repro.errors`): a transient
        :class:`IoError` that survives the retries surfaces as
        :class:`RetryableError`; a non-transient one propagates as is.
        The breaker sees the *final* outcome, not each attempt.  The first
        attempt is a plain call; the retry loop starts only from its error.
        """
        failed = None
        try:
            result = fn()
        except IoError as exc:
            failed = exc
        if failed is not None:
            result = self._retry_after(fn, failed)
        self.breaker.record_success(self.ctx.ops)
        return result

    def _retry_after(self, fn: Callable[[], _T], failed: IoError) -> _T:
        """The retries of a call whose first attempt raised ``failed``; a
        final failure feeds the breaker and surfaces typed."""
        try:
            return self.retry(fn, failed=failed)
        except IoError as exc:
            self._failed()
            self._raise_typed(
                exc,
                f"disk {self.disk_id}: transient IO failure persisted past "
                f"{self.ctx.attempts} attempts",
            )

    def locked_io(self, fn: Callable[[], _T]) -> _T:
        """Store IO for callers holding the node lock: wrap only.

        Never retries and never feeds the breaker: a trip demotes the
        disk, and demotion takes the node lock the caller already holds.
        """
        try:
            return fn()
        except IoError as exc:
            self._raise_typed(
                exc, "transient IO failure during control-plane operation"
            )

    def _raise_typed(self, exc: IoError, what: str) -> NoReturn:
        if not exc.transient:
            raise exc
        self.ctx.stats.wrapped_transients += 1
        raise RetryableError(f"{what}: {exc}") from exc

    def _meter(self) -> Callable[[], Tuple[int, ...]]:
        """Start measuring the disk; call the result for the
        ``(busy_units, reads, IOs)`` spent since."""
        stats = self.system.disk.stats

        def sample() -> Tuple[int, int, int]:
            ios = stats.reads + stats.writes + stats.resets
            return stats.busy_units, stats.reads, ios

        before = sample()
        return lambda: tuple(now - then for now, then in zip(sample(), before))

    def _charge(self, queue: DiskAdmission, busy: int, reads: int, ios: int) -> None:
        """Bill a measured IO burst to the virtual queue and the EWMA.

        Reads are foreground data-path work and bill at full cost; writes
        and resets are writeback/GC throughput the device overlaps with
        foreground requests, billed at ``1/2**BACKGROUND_WEIGHT_SHIFT``.
        Without the split, one healthy reclaim churn (hundreds of queued
        writes pumped inline) would look like a brownout.
        """
        ctx = self.ctx
        read_cost = min(busy, reads * self.system.disk.latency_units)
        charge = read_cost + ((busy - read_cost) >> BACKGROUND_WEIGHT_SHIFT)
        if not queue.complete(ctx.clock, busy, ios, charge_units=charge):
            return
        # Brownout: trip SLOW (once -- only from CLOSED) and tell the node.
        if ctx.breaker and self.breaker.state is BreakerState.CLOSED:
            self.breaker.trip_slow(ctx.ops)
            ctx.stats.slow_trips += 1
            self._tripped("node.breaker_trip_slow", ewma_milli=queue.ewma.milli)

    def _failed(self) -> None:
        if self.breaker.record_failure(self.ctx.ops):
            self._tripped("node.breaker_trip")

    def _tripped(self, event: str, **detail: int) -> None:
        ctx = self.ctx
        ctx.stats.breaker_trips += 1
        if ctx.recorder.enabled:
            ctx.recorder.event(event, disk=self.disk_id, op=ctx.ops, **detail)
        ctx.on_trip(self)

    # ------------------------------------------------------------------
    # deadline-aware admission

    def pending_cost(self) -> int:
        """Writeback cost already queued ahead of a new request, in units.

        Discounted by :data:`BACKGROUND_WEIGHT_SHIFT`: queued records are
        background throughput work, overlapped with foreground requests.
        """
        return self.store.scheduler.pending_cost_units() >> BACKGROUND_WEIGHT_SHIFT

    def admit(self, deadline: Optional[int]) -> None:
        """Admit or shed a request against this disk's virtual queue.

        Sheds raise typed errors **before any substrate IO**, so a shed
        request provably left the store unchanged.  With shedding disabled
        (the campaign's negative control) everything is admitted, but a
        request whose backlog already exceeds its deadline is counted as a
        deadline violation -- the monotonic counter the brownout gate
        checks.
        """
        ctx, queue = self.ctx, self.queue
        if queue is None:
            return
        limit = deadline if deadline is not None else ctx.admission.deadline_units
        if limit <= 0:
            raise InvalidRequestError("deadline must be positive")
        try:
            backlog = queue.admit(ctx.clock, limit, self.pending_cost())
        except (OverloadedError, DeadlineExceededError) as exc:
            if isinstance(exc, OverloadedError):
                kind = "overload"
                ctx.stats.shed_overload += 1
            else:
                kind = "deadline"
                ctx.stats.shed_deadline += 1
            if ctx.recorder.enabled:
                ctx.recorder.event("node.shed", disk=self.disk_id, kind=kind)
            raise
        if backlog > limit:
            # Only reachable with shedding off: the queue model knew this
            # request could not meet its deadline, yet it ran anyway.
            ctx.stats.deadline_violations += 1

    # ------------------------------------------------------------------
    # probe and health

    def probe(self) -> bool:
        """Health-check this tripped disk end to end; True = on probation.

        The probe exercises the whole medium path -- write, drain to disk,
        read back, delete, scrub -- because a disk with no shards left
        would otherwise pass a scrub-only probe vacuously.
        """
        ctx, store = self.ctx, self.store
        self.breaker.begin_probe()
        ctx.stats.breaker_probes += 1
        spent = self._meter()
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
        if ok and ctx.admission is not None:
            # A SLOW-tripped disk must also prove it is fast again: the
            # probe's measured per-IO cost stays within the budget or the
            # breaker falls back to SLOW and keeps cooling down.
            busy, _, ios = spent()
            if ios > 0:
                ok = busy * 1000 // ios <= PROBE_IO_BUDGET_MILLI
        self.breaker.on_probe(ok, ctx.ops)
        if ctx.recorder.enabled:
            ctx.recorder.event("node.breaker_probe", disk=self.disk_id, ok=ok)
        return self.breaker.state is BreakerState.PROBATION
