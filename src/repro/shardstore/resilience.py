"""Deterministic resilience primitives: the retry bound and the disk breaker.

The paper's failure-injection dimension (section 4.4) requires that "any IO
may fail" while the node still either completes each request or fails it
with a typed retryable error.  This module supplies the bookkeeping of the
*tolerance* side of that contract:

* :data:`RETRY_ATTEMPTS` -- the bound on immediate retries of a transient
  :class:`~repro.shardstore.errors.IoError`.  The one loop that runs them
  is :meth:`~repro.shardstore.lane.DiskLane.retry`, and nothing there
  sleeps or reads a clock.  A bare :class:`~repro.shardstore.store.
  ShardStore` never retries: an operation whose IO fails fails.
* :class:`DiskHealth` -- a sliding window of per-disk IO outcomes.
* :class:`CircuitBreaker` -- a per-disk breaker driven purely by the node's
  operation counter (no wall clock, so campaigns stay deterministic):

  ``CLOSED`` --(error threshold within the window)--> ``OPEN``
  --(cooldown ops elapse, probe scrub succeeds)--> ``PROBATION``
  --(clean ops)--> ``CLOSED``; a failed probe re-opens, an error during
  probation trips immediately.

The *deadline-aware request plane* extends the same contract into the time
domain: a disk that merely gets **slow** (a brownout) must not stall every
request behind it.  The primitives here are all clocked by logical units
derived from the node's op counter -- never wall time -- so campaign
artifacts stay byte-identical:

* :class:`LatencyEwma` -- integer fixed-point (milli-unit) exponential
  moving average of per-IO service cost, fed from
  :attr:`~repro.shardstore.disk.DiskStats.busy_units` deltas;
* :class:`AdmissionConfig`/:class:`DiskAdmission` -- a bounded virtual
  admission queue per disk.  Each request's estimated queue wait is
  compared against its logical deadline; requests are shed with typed
  :class:`~repro.shardstore.errors.OverloadedError` /
  :class:`~repro.shardstore.errors.DeadlineExceededError` *before* any
  substrate IO;
* :class:`RetryBudget` -- an op-clocked token bucket bounding how many
  retries a client may spend, so shedding does not trigger a retry storm;
* :attr:`BreakerState.SLOW` -- a brownout trip state for
  :class:`CircuitBreaker`, entered on a sustained high latency EWMA and
  healed through the same cooldown/probe/probation cycle as error trips.

The tuning is a set of module constants, not configuration: the request
plane is either on (these values) or off (``breaker=False``,
``retries=False``, no :class:`AdmissionConfig`), so the checkers have two
configurations to cover per mechanism rather than one per combination of
thresholds.  Only the admission SLO (deadline and queue bound) and the
shedding polarity are configuration.

Everything here is pure bookkeeping: the :class:`~repro.shardstore.rpc.
StorageNode` owns the actions (demoting a disk via shard migration, probing
via scrub, re-admitting into service).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional

from .errors import DeadlineExceededError, OverloadedError

__all__ = [
    "BreakerState",
    "DiskHealth",
    "CircuitBreaker",
    "LatencyEwma",
    "AdmissionConfig",
    "DiskAdmission",
    "RetryBudget",
]

# ----------------------------------------------------------------------
# retries

#: Attempts per request-plane call, counting the initial try: 3 means one
#: try plus two retries.  :meth:`~repro.shardstore.lane.DiskLane.retry`
#: runs them.
RETRY_ATTEMPTS = 3


class BreakerState(enum.Enum):
    """Lifecycle of one disk's circuit breaker."""

    CLOSED = "closed"  # healthy, in service
    OPEN = "open"  # tripped: demoted out of service, cooling down
    HALF_OPEN = "half-open"  # cooldown elapsed, awaiting a probe result
    PROBATION = "probation"  # re-admitted, watched for clean operation
    SLOW = "slow"  # brownout trip: demoted for sustained high latency


#: Breaker states in which the disk is demoted and awaiting cooldown/probe.
TRIPPED_STATES = (BreakerState.OPEN, BreakerState.SLOW)


#: IO outcomes remembered per disk.
BREAKER_WINDOW = 16
#: Errors within the window that trip the breaker.
BREAKER_TRIP_FAILURES = 3
#: Node ops a tripped disk waits before a probe.
BREAKER_COOLDOWN_OPS = 16
#: Clean node ops to close from probation.
BREAKER_PROBATION_OPS = 12


class DiskHealth:
    """Sliding-window health view of one disk's request-plane IO."""

    __slots__ = ("outcomes",)

    def __init__(self) -> None:
        #: The last :data:`BREAKER_WINDOW` outcomes; True = ok.
        self.outcomes: Deque[bool] = deque(maxlen=BREAKER_WINDOW)

    def recent_failures(self) -> int:
        return self.outcomes.count(False)

    def reset_window(self) -> None:
        self.outcomes.clear()


class CircuitBreaker:
    """Error-rate breaker for one disk, clocked by the node op counter.

    Its trips, probes and readmissions are counted once, in the node's
    :class:`~repro.shardstore.lane.NodeStats`.  A disabled breaker still
    watches outcomes but never trips or probes.
    """

    def __init__(
        self,
        enabled: bool = True,
        on_transition: Optional[Callable[[BreakerState, BreakerState], None]] = None,
    ) -> None:
        self.enabled = enabled
        self.state = BreakerState.CLOSED
        self.health = DiskHealth()
        self.tripped_at_op = 0
        self.probation_clean = 0
        # Which tripped state a failed probe should fall back to: a
        # still-slow disk re-enters SLOW, an erroring one re-enters OPEN.
        self._tripped_state = BreakerState.OPEN
        #: Observer fired as ``on_transition(old, new)`` on every state
        #: change.  The lane keeps its tripped count and the evidence plane
        #: journals breaker transitions through this hook -- including
        #: ``PROBATION -> CLOSED``, which happens inside
        #: :meth:`record_success` where the node cannot see it.
        self.on_transition = on_transition

    def _set_state(self, new: BreakerState) -> None:
        old = self.state
        if new is old:
            return
        self.state = new
        if self.on_transition is not None:
            self.on_transition(old, new)

    # ------------------------------------------------------------------
    # outcome feed

    def record_success(self, now_op: int) -> None:
        self.health.outcomes.append(True)
        if self.state is BreakerState.PROBATION:
            self.probation_clean += 1
            if self.probation_clean >= BREAKER_PROBATION_OPS:
                self._set_state(BreakerState.CLOSED)

    def record_failure(self, now_op: int) -> bool:
        """Feed one IO error; returns True when this error trips the breaker.

        The caller (the node) reacts to a trip by demoting the disk.
        """
        self.health.outcomes.append(False)
        if not self.enabled:
            return False
        if self.state is BreakerState.PROBATION:
            # Probation has no second chances: any error re-trips.
            self._trip(now_op)
            return True
        if (
            self.state is BreakerState.CLOSED
            and self.health.recent_failures() >= BREAKER_TRIP_FAILURES
        ):
            self._trip(now_op)
            return True
        return False

    def _trip(self, now_op: int) -> None:
        self._set_state(BreakerState.OPEN)
        self._tripped_state = BreakerState.OPEN
        self.tripped_at_op = now_op
        self.probation_clean = 0
        self.health.reset_window()

    def trip_slow(self, now_op: int) -> None:
        """Brownout trip: demote for sustained high latency, not errors.

        The caller (the node's admission layer) decides *when* -- typically
        after the per-disk latency EWMA stays above threshold for several
        consecutive requests.  The healing path is identical to an error
        trip: cooldown, probe, probation; the probe additionally checks the
        measured per-IO cost, so a still-slow disk fails its probe and
        falls back to SLOW rather than OPEN.
        """
        if not self.enabled:
            return
        self._set_state(BreakerState.SLOW)
        self._tripped_state = BreakerState.SLOW
        self.tripped_at_op = now_op
        self.probation_clean = 0
        self.health.reset_window()

    # ------------------------------------------------------------------
    # probe / re-admission (driven by the node's op counter)

    def should_probe(self, now_op: int) -> bool:
        return (
            self.enabled
            and self.state in TRIPPED_STATES
            and now_op - self.tripped_at_op >= BREAKER_COOLDOWN_OPS
        )

    def begin_probe(self) -> None:
        self._set_state(BreakerState.HALF_OPEN)

    def on_probe(self, ok: bool, now_op: int) -> None:
        """Feed a probe result; a success moves the disk into probation."""
        if ok:
            self._set_state(BreakerState.PROBATION)
            self.probation_clean = 0
            self.health.reset_window()
        else:
            # Restart the cooldown clock from the failed probe, returning
            # to whichever tripped state (OPEN/SLOW) the disk came from.
            self._set_state(self._tripped_state)
            self.tripped_at_op = now_op


# ----------------------------------------------------------------------
# deadline-aware admission control (brownout / overload tolerance)

#: Virtual-clock advance per request-plane op.  It exceeds a healthy
#: disk's mean per-op service cost, so a healthy queue drains and the
#: backlog hovers near zero.  Under a brownout (per-IO cost ramped by
#: injection) or an overload burst (arrivals with the clock held),
#: completed-work cost outpaces the clock and the backlog grows until
#: requests shed.
ARRIVAL_INTERVAL_UNITS = 8
#: Write/reset IO (writeback, flush/drain, GC reclaim) and queued
#: records charge the virtual queue at ``1/2**shift`` weight: they are
#: throughput work the device overlaps with foreground requests, so
#: billing them at full weight would make healthy reclaim churn look
#: like a brownout.  Reads always bill at full cost, and the per-IO
#: cost samples feeding the latency EWMA are never discounted.
BACKGROUND_WEIGHT_SHIFT = 3
#: EWMA smoothing factor (alpha = num/den) for per-IO cost.
EWMA_ALPHA_NUM = 1
EWMA_ALPHA_DEN = 4
#: Per-IO cost EWMA (milli-units) above which a disk counts as slow.
SLOW_THRESHOLD_MILLI = 4000
#: Consecutive slow completions before the breaker trips SLOW.
SLOW_TRIP_REQUESTS = 3
#: Probe acceptance: measured per-IO cost (milli-units) a probed disk
#: must stay under to be re-admitted.
PROBE_IO_BUDGET_MILLI = 2000
#: Retry token-bucket capacity (per client; this node models one).
RETRY_BUDGET_TOKENS = 8
#: Clock units per retry token refilled.
RETRY_REFILL_UNITS = 16


class LatencyEwma:
    """Integer fixed-point EWMA of per-IO service cost, in milli-units.

    Arithmetic is pure integer (floor division), so the trajectory is
    bit-identical on every platform and worker count -- a float EWMA would
    still be IEEE-deterministic, but integers make the artifact contract
    trivially auditable.  It starts at one unit per IO, a healthy disk's
    cost.
    """

    __slots__ = ("milli",)

    def __init__(self) -> None:
        self.milli = 1000

    def update(self, sample_milli: int) -> int:
        """Fold in one per-IO cost sample (milli-units); returns the EWMA."""
        self.milli += (sample_milli - self.milli) * EWMA_ALPHA_NUM // EWMA_ALPHA_DEN
        return self.milli


@dataclass(frozen=True)
class AdmissionConfig:
    """The deadline-aware request plane's service-level objective.

    Everything else about admission is a module constant (see
    :data:`ARRIVAL_INTERVAL_UNITS` and below); these three are what a
    deployment chooses, all in logical units.
    """

    #: Shed (raise typed errors) when the queue model says a request cannot
    #: meet its deadline.  ``False`` keeps all the accounting (including
    #: the deadline-violation counter) but executes everything -- the
    #: campaign's negative control.
    shedding: bool = True
    #: Default logical deadline carried by every request.
    deadline_units: int = 384
    #: Bounded admission queue: shed with ``OverloadedError`` when the
    #: estimated backlog reaches this many units.
    max_backlog_units: int = 1024


class DiskAdmission:
    """Virtual admission queue for one disk, on the node's logical clock.

    ``busy_until`` is the absolute clock unit at which previously admitted
    work is estimated to finish; the *backlog* of a new request is how far
    that lies beyond ``now`` plus the writeback cost already queued in the
    IO scheduler.  :meth:`admit` sheds (typed errors) when the backlog
    breaches the queue bound or the request's deadline; :meth:`complete`
    charges measured cost and feeds the brownout detector.  Its sheds are
    counted once, by the lane, in ``NodeStats.shed_overload`` /
    ``shed_deadline``.
    """

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self.busy_until = 0
        self.ewma = LatencyEwma()
        self.slow_streak = 0
        self.inflight = 0

    def backlog_units(self, now: int, pending_cost: int = 0) -> int:
        """Estimated queue wait, in clock units, for a request arriving now."""
        return max(0, self.busy_until - now) + max(0, pending_cost)

    def estimated_cost_units(self) -> int:
        """Expected service cost of one more request (at least one IO)."""
        return max(1, self.ewma.milli // 1000)

    def admit(self, now: int, deadline: int, pending_cost: int = 0) -> int:
        """Admit or shed a request; returns the backlog it saw.

        With shedding enabled, raises :class:`OverloadedError` when the
        backlog has reached the queue bound, or
        :class:`DeadlineExceededError` when backlog plus estimated service
        cost overruns ``deadline``.  Both fire *before* any substrate IO.
        With shedding disabled the request always passes; the caller is
        responsible for counting the deadline violation it just accepted.
        """
        backlog = self.backlog_units(now, pending_cost)
        if self.config.shedding:
            if backlog >= self.config.max_backlog_units:
                raise OverloadedError(
                    f"admission queue full: backlog {backlog} units >= "
                    f"bound {self.config.max_backlog_units}"
                )
            if backlog + self.estimated_cost_units() > deadline:
                raise DeadlineExceededError(
                    f"estimated wait {backlog}+{self.estimated_cost_units()} "
                    f"units exceeds deadline {deadline}"
                )
        return backlog

    def complete(
        self,
        now: int,
        busy_delta: int,
        io_delta: int,
        charge_units: Optional[int] = None,
    ) -> bool:
        """Charge a finished request's measured cost; True = trip SLOW.

        ``busy_delta``/``io_delta`` are the disk's ``busy_units`` and
        IO-count deltas across the request.  The per-IO quotient feeds the
        latency EWMA; :data:`SLOW_TRIP_REQUESTS` consecutive completions with
        the EWMA above threshold ask the caller to trip the breaker SLOW.
        ``charge_units`` overrides how much the virtual queue is billed
        (background writeback passes a discounted charge; the EWMA always
        sees the undiscounted per-IO cost).
        """
        charge = busy_delta if charge_units is None else charge_units
        self.busy_until = max(self.busy_until, now) + max(0, charge)
        if io_delta > 0:
            self.ewma.update(busy_delta * 1000 // io_delta)
            if self.ewma.milli >= SLOW_THRESHOLD_MILLI:
                self.slow_streak += 1
            else:
                self.slow_streak = 0
        return self.slow_streak >= SLOW_TRIP_REQUESTS

    def reset(self, now: int) -> None:
        """Forget queue state and latency history (probe-passed readmit)."""
        self.busy_until = now
        self.ewma = LatencyEwma()
        self.slow_streak = 0


class RetryBudget:
    """Op-clocked token bucket bounding a client's retries (storm control).

    Starts full with :data:`RETRY_BUDGET_TOKENS`; each retry spends a token
    and the bucket refills one token per :data:`RETRY_REFILL_UNITS` of
    node-clock progress.  When empty, retries are abandoned early (the
    underlying error propagates) rather than hammering a browned-out disk.
    A refusal is counted once, in ``NodeStats.retry_budget_exhausted``.
    """

    def __init__(self) -> None:
        self.tokens = RETRY_BUDGET_TOKENS
        self.last_refill = 0

    def acquire(self, now: int) -> bool:
        """Spend one retry token; False when the budget is exhausted."""
        if now > self.last_refill:
            refill = (now - self.last_refill) // RETRY_REFILL_UNITS
            if refill:
                self.tokens = min(RETRY_BUDGET_TOKENS, self.tokens + refill)
                self.last_refill += refill * RETRY_REFILL_UNITS
        else:
            self.last_refill = max(self.last_refill, now)
        if self.tokens > 0:
            self.tokens -= 1
            return True
        return False
