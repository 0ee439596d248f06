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

What the lanes of one node share -- policies, the two logical clocks, the
retry budget and the :class:`NodeStats` counters -- lives in one
:class:`LaneContext`.  The routing table, demotion and the control plane
stay in :mod:`repro.shardstore.rpc`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Callable, Dict, NoReturn, Optional, Tuple, TypeVar

from .errors import (
    DeadlineExceededError,
    InvalidRequestError,
    IoError,
    OverloadedError,
    RetryableError,
    ShardStoreError,
)
from .resilience import (
    AdmissionConfig,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    DiskAdmission,
    RetryBudget,
    RetryPolicy,
)
from .store import ShardStore, StoreSystem

_T = TypeVar("_T")

#: Reserved shard id a lane writes/reads/deletes to probe its disk.
PROBE_KEY = b"__breaker_probe__"


@dataclass
class NodeStats:
    """The request plane's counters (bumped only via :meth:`LaneContext.count`)."""

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
    slow_trips: int = 0  # breaker trips into SLOW (brownout detection)
    deadline_violations: int = 0  # admitted past an already-blown deadline
    retry_budget_exhausted: int = 0  # retries abandoned by the token bucket

    def snapshot(self) -> Dict[str, int]:
        """Request-plane totals, named for metrics exposition."""
        return {metric_name(f.name): getattr(self, f.name) for f in fields(self)}


def metric_name(field: str) -> str:
    """The exported name of a :class:`NodeStats` field."""
    if field in ("repaired", "quarantined"):  # scrub totals, by their old names
        return f"node.scrub_{field}"
    return f"node.{field}"


@dataclass
class LaneContext:
    """What the lanes of one node share: policies, clocks, counters, hooks."""

    retry_policy: RetryPolicy
    breaker_config: BreakerConfig
    admission: Optional[AdmissionConfig]
    recorder: Any
    #: The node's reaction to a breaker trip (demotion).
    on_trip: Callable[["DiskLane"], None]
    #: The evidence journal's hooks; None without a journal.
    note_retry: Optional[Callable[[], None]] = None
    on_transition: Optional[Callable[[int, BreakerState, BreakerState], None]] = None
    stats: NodeStats = field(default_factory=NodeStats)
    #: Request-plane ops so far: the breakers' clock (never wall time).
    ops: int = 0
    #: Virtual unit clock for admission math; the node advances it
    #: ``arrival_interval_units`` per op unless arrivals are held.
    clock: int = 0

    def __post_init__(self) -> None:
        adm = self.admission
        self.retry_budget: Optional[RetryBudget] = (
            None
            if adm is None
            else RetryBudget(adm.retry_budget, adm.retry_refill_units)
        )

    def count(self, field: str, amount: int = 1) -> None:
        """Bump one :class:`NodeStats` field; mirror it to a live recorder."""
        setattr(self.stats, field, getattr(self.stats, field) + amount)
        if self.recorder.enabled:
            self.recorder.count(metric_name(field), amount)

    def retry_token(self) -> bool:
        """Retry-storm control: spend one op-clocked retry-budget token."""
        if self.retry_budget is None or self.retry_budget.acquire(self.clock):
            return True
        self.count("retry_budget_exhausted")
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
        #: ``retry(fn)``: ``fn`` under the node's retry policy and budget;
        #: errors propagate raw.  Demotion's under-lock reads use it as is.
        self.retry = partial(
            ctx.retry_policy.call,
            on_retry=self._note_retry,
            should_retry=ctx.retry_token,
        )
        self.fresh_breaker()

    @property
    def store(self) -> ShardStore:
        return self.system.store

    def fresh_breaker(self) -> None:
        """Start a new CLOSED breaker (the one place its hook is installed)."""
        self.breaker = CircuitBreaker(self.ctx.breaker_config)
        if self.ctx.on_transition is not None:
            self.breaker.on_transition = partial(
                self.ctx.on_transition, self.disk_id
            )

    def readmit(self) -> None:
        """Back in service: stranded shards are fully servable again and
        the queue forgets its backlog and latency history."""
        self.in_service = True
        self.degraded = False
        if self.queue is not None:
            self.queue.reset(self.ctx.clock)

    # ------------------------------------------------------------------
    # store IO

    def _note_retry(self, failures: int, backoff: int, exc: IoError) -> None:
        ctx = self.ctx
        ctx.count("retries")
        if ctx.note_retry is not None:
            ctx.note_retry()
        if ctx.recorder.enabled:
            ctx.recorder.event(
                "node.retry",
                disk=self.disk_id,
                attempt=failures,
                backoff=backoff,
                error=str(exc),
            )

    def io(self, fn: Callable[[], _T]) -> _T:
        """Run a request's store operation on this disk: the metered path.

        :meth:`unmetered_io`, plus, with admission, the disk's busy/IO
        deltas across the call charged to the queue whether it succeeded
        or not -- flush and drain matter most, since ``put`` only queues
        records -- and a sustained-slow EWMA tripping the breaker SLOW.
        """
        queue = self.queue
        if queue is None:
            return self.unmetered_io(fn)
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
        The breaker sees the *final* outcome, not each attempt.
        """
        try:
            result = self.retry(fn)
        except IoError as exc:
            self._failed()
            self._raise_typed(
                exc,
                f"disk {self.disk_id}: transient IO failure persisted past "
                f"{self.ctx.retry_policy.max_attempts} attempts",
            )
        self.breaker.record_success(self.ctx.ops)
        return result

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
        self.ctx.count("wrapped_transients")
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
        foreground requests, billed at ``1/2**background_weight_shift``.
        Without the split, one healthy reclaim churn (hundreds of queued
        writes pumped inline) would look like a brownout.
        """
        ctx = self.ctx
        read_cost = min(busy, reads * self.system.disk.latency_units)
        charge = read_cost + (
            (busy - read_cost) >> ctx.admission.background_weight_shift
        )
        if not queue.complete(ctx.clock, busy, ios, charge_units=charge):
            return
        # Brownout: trip SLOW (once -- only from CLOSED) and tell the node.
        if ctx.breaker_config.enabled and self.breaker.state is BreakerState.CLOSED:
            self.breaker.trip_slow(ctx.ops)
            ctx.count("slow_trips")
            self._tripped("node.breaker_trip_slow", ewma_milli=queue.ewma.milli)

    def _failed(self) -> None:
        ctx = self.ctx
        tripped = self.breaker.record_failure(ctx.ops)
        if ctx.recorder.enabled:
            ctx.recorder.gauge(
                f"node.disk{self.disk_id}.error_rate",
                self.breaker.health.error_rate(),
            )
        if tripped:
            self._tripped("node.breaker_trip")

    def _tripped(self, event: str, **detail: int) -> None:
        ctx = self.ctx
        ctx.count("breaker_trips")
        if ctx.recorder.enabled:
            ctx.recorder.event(event, disk=self.disk_id, op=ctx.ops, **detail)
        ctx.on_trip(self)

    # ------------------------------------------------------------------
    # deadline-aware admission

    def pending_cost(self) -> int:
        """Writeback cost already queued ahead of a new request, in units.

        Discounted by ``background_weight_shift``: queued records are
        background throughput work, overlapped with foreground requests.
        """
        cost = self.store.scheduler.pending_cost_units()
        return cost >> self.ctx.admission.background_weight_shift

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
            kind = "overload" if isinstance(exc, OverloadedError) else "deadline"
            ctx.count(f"shed_{kind}")
            if ctx.recorder.enabled:
                ctx.recorder.event("node.shed", disk=self.disk_id, kind=kind)
            raise
        if backlog > limit:
            # Only reachable with shedding off: the queue model knew this
            # request could not meet its deadline, yet it ran anyway.
            ctx.count("deadline_violations")

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
        ctx.count("breaker_probes")
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
                ok = busy * 1000 // ios <= ctx.admission.probe_io_budget_milli
        self.breaker.on_probe(ok, ctx.ops)
        if ctx.recorder.enabled:
            ctx.recorder.event("node.breaker_probe", disk=self.disk_id, ok=ok)
        return self.breaker.state is BreakerState.PROBATION

    def gauges(self) -> Dict[str, float]:
        """This disk's health gauges: breaker state code (0=closed 1=open
        2=half-open 3=probation 4=slow), sliding-window error rate and
        service/degraded flags, plus the queue view under admission."""
        prefix = f"node.disk{self.disk_id}"
        out: Dict[str, float] = {
            f"{prefix}.breaker_state": self.breaker.state.code,
            f"{prefix}.error_rate": self.breaker.health.error_rate(),
            f"{prefix}.in_service": float(self.in_service),
            f"{prefix}.degraded": float(self.degraded),
        }
        queue = self.queue
        if queue is not None:
            out[f"{prefix}.queue_backlog_units"] = float(
                queue.backlog_units(self.ctx.clock, self.pending_cost())
            )
            out[f"{prefix}.queue_depth"] = float(
                self.store.scheduler.pending_count
            )
            out[f"{prefix}.latency_ewma"] = queue.ewma.milli / 1000.0
            out[f"{prefix}.inflight"] = float(queue.inflight)
        return out
