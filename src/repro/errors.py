"""Typed error hierarchy for the ShardStore substrate.

The paper treats data read from disk as untrusted (bit rot, transient
failures), so corruption is an *expected* error that components detect and
surface, never a crash.  Every error a component can return to a caller is a
subclass of :class:`ShardStoreError`; anything else escaping a component is a
bug (and is exactly what the panic-freedom harness in
:mod:`repro.serialization.fuzz` hunts for).

Error contract at the ``KVNode`` API surface (section 4.4)
----------------------------------------------------------

What a substrate failure looks like by the time it reaches a
``StorageNode``/``KVNode`` client.  Raw *transient* ``IoError``\\ s never
escape the node: the request plane retries them
(:meth:`~repro.shardstore.lane.DiskLane.retry`) and wraps survivors.  A bare
``ShardStore`` retries nothing: its failed IO fails the operation.

====================================  ==============================  =========
raised by the substrate               surfaces at the node API as     retryable
====================================  ==============================  =========
``IoError(transient=True)``           ``RetryableError`` (after the   yes
                                      bounded retry budget)
``IoError(transient=False)``          ``IoError`` (permanent medium   no
                                      failure; feeds the breaker)
``CorruptionError``                   ``CorruptionError`` (or
                                      ``NotFoundError`` once scrub
                                      quarantines the key)            no
routing target out of service /       ``RetryableError``              yes
breaker-demoted disk (writes)
admission queue full (shed before     ``OverloadedError``             yes,
touching the disk)                                                    budgeted
estimated wait exceeds the request    ``DeadlineExceededError``       yes,
deadline (shed before the disk)                                       budgeted
missing key                           ``NotFoundError`` /             no
                                      ``KeyNotFoundError``
malformed request                     ``InvalidRequestError``         no
====================================  ==============================  =========

``OverloadedError`` and ``DeadlineExceededError`` are *load-shedding*
errors: the request plane rejects the call **before** any substrate IO,
so the store state is guaranteed unchanged -- there is no torn-write or
lost-ack uncertainty to track.  Both are retryable in principle, but
clients must retry under a bounded retry *budget* (see
:class:`~repro.shardstore.resilience.RetryBudget`) so that shedding does
not trigger a retry storm.

How checkers read the contract: a ``RetryableError`` raised ``from`` an
``IoError`` (the request plane's wrap) failed in the store, so a write
that raised it may have applied; one without a cause (a shed, an
out-of-service target) was refused before any store IO and changed
nothing.  A read that raises either returned no data, which is always
allowed.  ``repro.core.conformance.NodeHarness`` holds this reading once,
for the direct, wire and storm node checks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class ShardStoreError(Exception):
    """Base class for all expected ShardStore errors."""


class IoError(ShardStoreError):
    """An IO to the underlying disk failed (injected or otherwise)."""

    def __init__(self, message: str, *, transient: bool = True) -> None:
        super().__init__(message)
        self.transient = transient


class CorruptionError(ShardStoreError):
    """On-disk bytes failed validation (bad magic, CRC, framing, bounds)."""


class NotFoundError(ShardStoreError):
    """The requested key or locator does not exist."""


class KeyNotFoundError(NotFoundError):
    """A mutation (e.g. ``delete``) targeted a key that does not exist.

    Both `KVNode` surfaces raise this uniformly so callers never have to
    branch on a store-vs-node ``Optional`` return.
    """


class ExtentError(ShardStoreError):
    """Invalid extent operation (bounds, overfull append, bad reset)."""


class InvalidRequestError(ShardStoreError):
    """A malformed API request (empty key, oversized value, bad disk id)."""


class RetryableError(ShardStoreError):
    """The operation can be retried (e.g. disk temporarily out of service)."""


class OverloadedError(RetryableError):
    """The request was shed because the target disk's admission queue is full.

    Raised by the request plane *before* any substrate IO: the store state
    is unchanged.  Retry later, under a :class:`RetryBudget`.
    """


class DeadlineExceededError(RetryableError):
    """The request was shed because the estimated queue wait exceeds its
    logical deadline.

    Like :class:`OverloadedError` this is raised before any substrate IO,
    so the store state is unchanged.  Deadlines are measured on the node's
    deterministic op-clock, never wall time.
    """


class DegradedWriteError(RetryableError):
    """A replicated write reached fewer than its write quorum ``W``.

    Raised by the cluster router instead of blocking for unreachable
    replicas.  The write may have been applied on up to ``acks`` replicas
    (never a quorum), so its post-state is *uncertain*: the trace checker
    widens the key to {applied, not-applied} until a later read observes
    one branch.  Retry under a bounded budget; puts are idempotent at
    equal versions.
    """

    def __init__(
        self, message: str, *, acks: int = 0, required: int = 0
    ) -> None:
        super().__init__(message)
        self.acks = acks
        self.required = required


class DegradedReadError(RetryableError):
    """A replicated read reached fewer than its read quorum ``R``.

    Raised by the cluster router when too few replicas respond (down,
    partitioned, or shedding).  Reads never mutate state, so there is no
    uncertainty to track -- the caller simply retries under budget.

    ``candidates`` lists the ``(node_id, version)`` pairs of the replicas
    that *did* answer (version -1 means "replica answered absent"), the
    read-side analogue of :attr:`DegradedWriteError.acks`: divergence
    debugging starts from the error itself instead of a journal replay.
    """

    def __init__(
        self,
        message: str,
        *,
        replies: int = 0,
        required: int = 0,
        candidates: "Optional[List[Tuple[int, int]]]" = None,
    ) -> None:
        super().__init__(message)
        self.replies = replies
        self.required = required
        self.candidates: List[Tuple[int, int]] = list(candidates or [])


class AntiEntropyError(RetryableError):
    """An explicit anti-entropy sync could not reach its peer replica.

    Raised by :class:`repro.cluster.antientropy.AntiEntropyService` when a
    *requested* pairwise sync names a crashed, partitioned, demoted, or
    removed node.  Background rounds never raise it -- they skip
    unreachable pairs and retry on a later round -- so foreground traffic
    is never disturbed by a peer being down.  Retryable: the peer may be
    healed or readmitted by the time the caller retries.
    """

    def __init__(
        self, message: str, *, peer: int = -1, reason: str = "unreachable"
    ) -> None:
        super().__init__(message)
        self.peer = peer
        self.reason = reason
