"""Deterministic resilience primitives: retry policy and disk circuit breaker.

The paper's failure-injection dimension (section 4.4) requires that "any IO
may fail" while the node still either completes each request or fails it
with a typed retryable error.  This module supplies the *tolerance* side of
that contract:

* :class:`RetryPolicy` -- a bounded retry-with-backoff policy for transient
  :class:`~repro.shardstore.errors.IoError`\\ s.  Backoff is expressed in
  *logical units*: nothing here sleeps or reads a clock.
* :class:`DiskHealth` -- a sliding window of per-disk IO outcomes with an
  error rate derived from it.
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

Everything here is pure bookkeeping: the :class:`~repro.shardstore.rpc.
StorageNode` owns the actions (demoting a disk via shard migration, probing
via scrub, re-admitting into service).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Optional, TypeVar

from .errors import DeadlineExceededError, IoError, OverloadedError

__all__ = [
    "RetryPolicy",
    "BreakerConfig",
    "BreakerState",
    "DiskHealth",
    "CircuitBreaker",
    "LatencyEwma",
    "AdmissionConfig",
    "DiskAdmission",
    "RetryBudget",
]

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient IO errors.

    ``max_attempts`` counts the initial try: 3 means one try plus two
    retries.  Backoff between attempts is ``min(cap, start * multiplier **
    (failures - 1))`` logical units, handed to ``on_retry``; the policy
    never sleeps.  Non-transient errors are never retried.
    """

    max_attempts: int = 3
    backoff_start: int = 1
    backoff_multiplier: int = 2
    backoff_cap: int = 8

    @classmethod
    def disabled(cls) -> "RetryPolicy":
        """A policy that never retries (the pre-resilience behaviour)."""
        return cls(max_attempts=1)

    @property
    def enabled(self) -> bool:
        return self.max_attempts > 1

    def backoff_units(self, failures: int) -> int:
        """Logical backoff before the next attempt after ``failures`` errors."""
        if failures <= 0:
            return 0
        return min(
            self.backoff_cap,
            self.backoff_start * self.backoff_multiplier ** (failures - 1),
        )

    def call(
        self,
        fn: Callable[[], T],
        *,
        on_retry: Optional[Callable[[int, int, IoError], None]] = None,
        should_retry: Optional[Callable[[], bool]] = None,
    ) -> T:
        """Run ``fn``, retrying transient :class:`IoError` up to the budget.

        ``on_retry(attempt, backoff_units, exc)`` fires before each retry so
        callers can count retries and emit events.  ``should_retry`` is an
        extra gate consulted before every retry -- the hook a
        :class:`RetryBudget` plugs into; when it returns False the retry is
        abandoned and the error propagates even though ``max_attempts`` is
        not exhausted.  The final error (or any non-transient one)
        propagates unchanged.
        """
        failures = 0
        while True:
            try:
                return fn()
            except IoError as exc:
                if not exc.transient:
                    raise
                failures += 1
                if failures >= self.max_attempts:
                    raise
                if should_retry is not None and not should_retry():
                    raise
                if on_retry is not None:
                    on_retry(failures, self.backoff_units(failures), exc)


class BreakerState(enum.Enum):
    """Lifecycle of one disk's circuit breaker."""

    CLOSED = "closed"  # healthy, in service
    OPEN = "open"  # tripped: demoted out of service, cooling down
    HALF_OPEN = "half-open"  # cooldown elapsed, awaiting a probe result
    PROBATION = "probation"  # re-admitted, watched for clean operation
    SLOW = "slow"  # brownout trip: demoted for sustained high latency

    @property
    def code(self) -> int:
        """Stable numeric encoding for metrics export."""
        return _STATE_CODES[self]


_STATE_CODES = {
    BreakerState.CLOSED: 0,
    BreakerState.OPEN: 1,
    BreakerState.HALF_OPEN: 2,
    BreakerState.PROBATION: 3,
    BreakerState.SLOW: 4,
}

#: Breaker states in which the disk is demoted and awaiting cooldown/probe.
_TRIPPED_STATES = (BreakerState.OPEN, BreakerState.SLOW)


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning for :class:`CircuitBreaker` (all thresholds in node ops)."""

    enabled: bool = True
    window: int = 16  # IO outcomes remembered per disk
    trip_failures: int = 3  # errors within the window that trip the breaker
    cooldown_ops: int = 16  # node ops a tripped disk waits before a probe
    probation_ops: int = 12  # clean node ops to close from probation

    @classmethod
    def disabled(cls) -> "BreakerConfig":
        return cls(enabled=False)


@dataclass
class DiskHealth:
    """Sliding-window health view of one disk's request-plane IO."""

    window: int = 16
    outcomes: Deque[bool] = field(default_factory=deque)  # True = ok
    total_errors: int = 0
    total_successes: int = 0

    def record(self, ok: bool) -> None:
        self.outcomes.append(ok)
        while len(self.outcomes) > self.window:
            self.outcomes.popleft()
        if ok:
            self.total_successes += 1
        else:
            self.total_errors += 1

    def recent_failures(self) -> int:
        return sum(1 for ok in self.outcomes if not ok)

    def error_rate(self) -> float:
        """Fraction of recent IO outcomes that failed (0.0 when idle)."""
        if not self.outcomes:
            return 0.0
        return self.recent_failures() / len(self.outcomes)

    def reset_window(self) -> None:
        self.outcomes.clear()


class CircuitBreaker:
    """Error-rate breaker for one disk, clocked by the node op counter."""

    def __init__(self, config: BreakerConfig) -> None:
        self.config = config
        self.state = BreakerState.CLOSED
        self.health = DiskHealth(window=config.window)
        self.tripped_at_op = 0
        self.probation_clean = 0
        self.trips = 0
        self.slow_trips = 0
        self.probes = 0
        self.readmissions = 0
        # Which tripped state a failed probe should fall back to: a
        # still-slow disk re-enters SLOW, an erroring one re-enters OPEN.
        self._tripped_state = BreakerState.OPEN
        #: Observer fired as ``on_transition(old, new)`` on every state
        #: change.  The evidence plane journals breaker transitions through
        #: this hook -- including ``PROBATION -> CLOSED``, which happens
        #: inside :meth:`record_success` where the node cannot see it.
        self.on_transition: Optional[
            Callable[[BreakerState, BreakerState], None]
        ] = None

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
        self.health.record(True)
        if self.state is BreakerState.PROBATION:
            self.probation_clean += 1
            if self.probation_clean >= self.config.probation_ops:
                self._set_state(BreakerState.CLOSED)

    def record_failure(self, now_op: int) -> bool:
        """Feed one IO error; returns True when this error trips the breaker.

        The caller (the node) reacts to a trip by demoting the disk.
        """
        self.health.record(False)
        if not self.config.enabled:
            return False
        if self.state is BreakerState.PROBATION:
            # Probation has no second chances: any error re-trips.
            self._trip(now_op)
            return True
        if (
            self.state is BreakerState.CLOSED
            and self.health.recent_failures() >= self.config.trip_failures
        ):
            self._trip(now_op)
            return True
        return False

    def _trip(self, now_op: int) -> None:
        self._set_state(BreakerState.OPEN)
        self._tripped_state = BreakerState.OPEN
        self.tripped_at_op = now_op
        self.probation_clean = 0
        self.trips += 1
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
        if not self.config.enabled:
            return
        self._set_state(BreakerState.SLOW)
        self._tripped_state = BreakerState.SLOW
        self.tripped_at_op = now_op
        self.probation_clean = 0
        self.trips += 1
        self.slow_trips += 1
        self.health.reset_window()

    # ------------------------------------------------------------------
    # probe / re-admission (driven by the node's op counter)

    def should_probe(self, now_op: int) -> bool:
        return (
            self.config.enabled
            and self.state in _TRIPPED_STATES
            and now_op - self.tripped_at_op >= self.config.cooldown_ops
        )

    def begin_probe(self) -> None:
        self._set_state(BreakerState.HALF_OPEN)

    def on_probe(self, ok: bool, now_op: int) -> None:
        """Feed a probe result; a success moves the disk into probation."""
        self.probes += 1
        if ok:
            self._set_state(BreakerState.PROBATION)
            self.probation_clean = 0
            self.readmissions += 1
            self.health.reset_window()
        else:
            # Restart the cooldown clock from the failed probe, returning
            # to whichever tripped state (OPEN/SLOW) the disk came from.
            self._set_state(self._tripped_state)
            self.tripped_at_op = now_op


# ----------------------------------------------------------------------
# deadline-aware admission control (brownout / overload tolerance)


class LatencyEwma:
    """Integer fixed-point EWMA of per-IO service cost, in milli-units.

    Arithmetic is pure integer (floor division), so the trajectory is
    bit-identical on every platform and worker count -- a float EWMA would
    still be IEEE-deterministic, but integers make the artifact contract
    trivially auditable.  ``value`` is the conventional float view for
    gauges; comparisons against thresholds use the milli integer.
    """

    __slots__ = ("alpha_num", "alpha_den", "milli", "samples")

    def __init__(
        self,
        alpha_num: int = 1,
        alpha_den: int = 4,
        initial_milli: int = 1000,
    ) -> None:
        if not 0 < alpha_num <= alpha_den:
            raise ValueError("EWMA alpha must be in (0, 1]")
        self.alpha_num = alpha_num
        self.alpha_den = alpha_den
        self.milli = initial_milli
        self.samples = 0

    def update(self, sample_milli: int) -> int:
        """Fold in one per-IO cost sample (milli-units); returns the EWMA."""
        self.milli += (sample_milli - self.milli) * self.alpha_num // self.alpha_den
        self.samples += 1
        return self.milli

    @property
    def value(self) -> float:
        return self.milli / 1000.0


@dataclass(frozen=True)
class AdmissionConfig:
    """Tuning for the deadline-aware request plane (all units logical).

    The node's virtual clock advances ``arrival_interval_units`` per
    request-plane op, which exceeds a healthy disk's mean per-op service
    cost -- so a healthy queue drains and the backlog hovers near zero.
    Under a brownout (per-IO cost ramped by injection) or an overload burst
    (arrivals with the clock held), completed-work cost outpaces the clock
    and the backlog grows until requests shed.
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
    #: Virtual-clock advance per request-plane op.
    arrival_interval_units: int = 8
    #: Write/reset IO (writeback, flush/drain, GC reclaim) and queued
    #: records charge the virtual queue at ``1/2**shift`` weight: they are
    #: throughput work the device overlaps with foreground requests, so
    #: billing them at full weight would make healthy reclaim churn look
    #: like a brownout.  Reads always bill at full cost, and the per-IO
    #: cost samples feeding the latency EWMA are never discounted.
    background_weight_shift: int = 3
    #: EWMA smoothing factor (alpha = num/den) for per-IO cost.
    ewma_alpha_num: int = 1
    ewma_alpha_den: int = 4
    #: Per-IO cost EWMA (milli-units) above which a disk counts as slow.
    slow_threshold_milli: int = 4000
    #: Consecutive slow completions before the breaker trips SLOW.
    slow_trip_requests: int = 3
    #: Probe acceptance: measured per-IO cost (milli-units) a probed disk
    #: must stay under to be re-admitted.
    probe_io_budget_milli: int = 2000
    #: Retry token-bucket capacity (per client; this node models one).
    retry_budget: int = 8
    #: Clock units per retry token refilled.
    retry_refill_units: int = 16


class DiskAdmission:
    """Virtual admission queue for one disk, on the node's logical clock.

    ``busy_until`` is the absolute clock unit at which previously admitted
    work is estimated to finish; the *backlog* of a new request is how far
    that lies beyond ``now`` plus the writeback cost already queued in the
    IO scheduler.  :meth:`admit` sheds (typed errors) when the backlog
    breaches the queue bound or the request's deadline; :meth:`complete`
    charges measured cost and feeds the brownout detector.
    """

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self.busy_until = 0
        self.ewma = LatencyEwma(config.ewma_alpha_num, config.ewma_alpha_den)
        self.slow_streak = 0
        self.inflight = 0
        self.admitted = 0
        self.shed_overload = 0
        self.shed_deadline = 0

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
                self.shed_overload += 1
                raise OverloadedError(
                    f"admission queue full: backlog {backlog} units >= "
                    f"bound {self.config.max_backlog_units}"
                )
            if backlog + self.estimated_cost_units() > deadline:
                self.shed_deadline += 1
                raise DeadlineExceededError(
                    f"estimated wait {backlog}+{self.estimated_cost_units()} "
                    f"units exceeds deadline {deadline}"
                )
        self.admitted += 1
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
        latency EWMA; ``slow_trip_requests`` consecutive completions with
        the EWMA above threshold ask the caller to trip the breaker SLOW.
        ``charge_units`` overrides how much the virtual queue is billed
        (background writeback passes a discounted charge; the EWMA always
        sees the undiscounted per-IO cost).
        """
        charge = busy_delta if charge_units is None else charge_units
        self.busy_until = max(self.busy_until, now) + max(0, charge)
        if io_delta > 0:
            self.ewma.update(busy_delta * 1000 // io_delta)
            if self.ewma.milli >= self.config.slow_threshold_milli:
                self.slow_streak += 1
            else:
                self.slow_streak = 0
        return self.slow_streak >= self.config.slow_trip_requests

    def reset(self, now: int) -> None:
        """Forget queue state and latency history (probe-passed readmit)."""
        self.busy_until = now
        self.ewma = LatencyEwma(
            self.config.ewma_alpha_num, self.config.ewma_alpha_den
        )
        self.slow_streak = 0


class RetryBudget:
    """Op-clocked token bucket bounding a client's retries (storm control).

    Starts full; each retry spends a token and the bucket refills one token
    per ``refill_units`` of node-clock progress.  When empty, retries are
    abandoned early (the underlying error propagates) rather than hammering
    a browned-out disk.
    """

    def __init__(self, capacity: int, refill_units: int) -> None:
        if capacity < 0 or refill_units <= 0:
            raise ValueError("capacity must be >= 0 and refill_units > 0")
        self.capacity = capacity
        self.refill_units = refill_units
        self.tokens = capacity
        self.last_refill = 0
        self.spent = 0
        self.denied = 0

    def acquire(self, now: int) -> bool:
        """Spend one retry token; False when the budget is exhausted."""
        if now > self.last_refill:
            refill = (now - self.last_refill) // self.refill_units
            if refill:
                self.tokens = min(self.capacity, self.tokens + refill)
                self.last_refill += refill * self.refill_units
        else:
            self.last_refill = max(self.last_refill, now)
        if self.tokens > 0:
            self.tokens -= 1
            self.spent += 1
            return True
        self.denied += 1
        return False
