"""Failure-injection conformance: the section 4.4 contract under a storm.

Each shard of the ``injection`` campaign phase replays conformance PBT
while a seeded :class:`~repro.shardstore.injection.FaultPlan` fires faults
at (operation count, disk, extent) coordinates, then asserts the paper's
two-sided contract:

* **during the storm** every operation either conforms to the model or
  fails with a *typed* error -- a transient ``IoError`` escaping the node
  request plane (instead of being retried and wrapped as
  ``RetryableError``) is itself a conformance failure;
* **after the storm** a recovery pass must restore full conformance:
  scrub-repair heals corrupt-but-recoverable chunks and quarantines the
  rest, drains succeed, a clean reboot works, a final scrub is clean, and
  every key untouched by any failed operation still holds exactly its
  model value.

Two harnesses cover the two planes:

* :class:`InjectionStoreHarness` extends the single-store conformance
  harness with plan-driven arming, silent bit-flip corruption (with the
  uncertainty relaxation that corruption forces: a cache-served read can
  no longer pin down on-disk state), and a deterministic
  ``recover_and_verify`` pass.
* :class:`InjectionNodeHarness` drives the multi-disk ``StorageNode``
  request plane, where the tolerance machinery (retry/backoff, the
  per-disk circuit breaker, degraded mode) must *absorb* the storm:
  settlement requires flush/drain to eventually succeed, which under a
  permanent-fault plan only happens because the breaker demotes the dying
  disk.  Run with the breaker disabled, the same plan must fail -- the CI
  negative test that proves the self-healing is load-bearing.

The ``brownout`` and ``overload`` node profiles extend the storm into the
gray-failure dimension: a slow disk ramps its per-IO latency, or arrival
bursts outpace the admission clock.  Under these plans the node runs with
its deadline-aware admission plane enabled; a shed
(``OverloadedError``/``DeadlineExceededError``) is a *clean* typed failure
raised before any substrate IO, so -- unlike a mid-IO transient -- it
never smears model uncertainty.  The settlement gate additionally
requires ``deadline_violations == 0``: requests that ran past their
deadline instead of being shed.  With shedding disabled
(``--no-shedding``) the same storm accumulates violations and the gate
fails -- the deterministic negative control proving the shedding is
load-bearing.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional, Set

from repro.core.alphabet import (
    Alphabet,
    BiasConfig,
    OpSpec,
    Operation,
    _key_args,
    _no_args,
    _put_args,
    store_alphabet,
)
from repro.core.conformance import (
    CheckFailure,
    Harness,
    StoreHarness,
    delete_verdict,
)
from repro.models.candidates import CandidateModel
from repro.shardstore.config import FIRST_DATA_EXTENT, StoreConfig
from repro.shardstore.disk import DiskGeometry, FailureMode, FaultKind
from repro.shardstore.errors import (
    DeadlineExceededError,
    IoError,
    KeyNotFoundError,
    NotFoundError,
    OverloadedError,
    RetryableError,
    ShardStoreError,
)
from repro.shardstore.injection import (
    FAULT_BIT_FLIP,
    FAULT_BURST,
    FAULT_HEAL,
    FAULT_PERMANENT,
    FAULT_PERMANENT_DISK,
    FAULT_SLOW_DISK,
    FAULT_TORN_WRITE,
    FAULT_TRANSIENT_READ,
    FAULT_TRANSIENT_WRITE,
    FaultInjector,
    FaultPlan,
    PlannedFault,
)
from repro.shardstore.observability import (
    NULL_RECORDER,
    Journal,
    Recorder,
    RingRecorder,
)
from repro.shardstore.resilience import (
    AdmissionConfig,
    BreakerConfig,
    RetryPolicy,
)
from repro.shardstore.rpc import StorageNode

from .spec import STORM_OPS, SUITE_REGISTRY, SUITE_TABLE, ShardResult, ShardSpec
from .storm import SequenceOutcome, run_storm_shard

__all__ = [
    "InjectionStoreHarness",
    "InjectionNodeHarness",
    "injection_node_alphabet",
    "injection_storm_alphabet",
    "storm_admission",
    "run_shard",
]

#: Gray-failure storm profiles: these run with the admission plane on.
STORM_PROFILES = ("brownout", "overload")

#: The storm SLO, tighter than the node's defaults: campaign sequences are
#: short, so the deadline must be breachable within one storm window while
#: healthy traffic (whose per-op cost is a few units against an arrival
#: interval of 8) still never comes near it.
STORM_DEADLINE_UNITS = 96
STORM_MAX_BACKLOG_UNITS = 256


def storm_admission(shedding: bool) -> AdmissionConfig:
    """The admission config storm shards run under (both polarities)."""
    return AdmissionConfig(
        shedding=shedding,
        deadline_units=STORM_DEADLINE_UNITS,
        max_backlog_units=STORM_MAX_BACKLOG_UNITS,
    )

#: The storm geometry: the same small config conformance uses, so faults
#: reach reclamation/rotation paths quickly.
_NUM_EXTENTS = 12
_DATA_EXTENTS = tuple(range(FIRST_DATA_EXTENT, _NUM_EXTENTS))


def _storm_config(
    seed: int, recorder: Recorder, journal: Optional[Journal] = None
) -> StoreConfig:
    return StoreConfig(
        geometry=DiskGeometry(
            num_extents=_NUM_EXTENTS, extent_size=4096, page_size=128
        ),
        seed=seed,
        recorder=recorder,
        retry_policy=RetryPolicy(),
        journal=journal,
    )


def _aim_write(system: Any, planned_extent: int) -> int:
    """Steer a write fault at an extent the store will actually write.

    Planned extents are drawn uniformly, but writes concentrate on the
    scheduler's pending queues; arming a random extent mostly misses.  The
    plan's extent stays the deterministic tie-breaker among candidates.
    """
    scheduler = system.store.scheduler
    pending = [e for e in _DATA_EXTENTS if scheduler.pending_count_for(e)]
    if pending:
        return pending[planned_extent % len(pending)]
    return planned_extent


def _aim_read(system: Any, planned_extent: int) -> int:
    """Steer a read/corruption fault at an extent holding durable bytes."""
    disk = system.disk
    populated = [
        extent for extent in _DATA_EXTENTS if disk.write_pointer(extent) > 0
    ]
    if populated:
        return populated[planned_extent % len(populated)]
    return planned_extent


def _arm_once(system: Any, fault: PlannedFault) -> bool:
    """Arm one fire-once point fault (transient read/write, torn write)
    on ``system``'s disk; False when ``fault`` is some other kind."""
    if fault.kind not in (
        FAULT_TRANSIENT_READ,
        FAULT_TRANSIENT_WRITE,
        FAULT_TORN_WRITE,
    ):
        return False
    reads = fault.kind == FAULT_TRANSIENT_READ
    aim = _aim_read if reads else _aim_write
    system.disk.arm_fault(
        aim(system, fault.extent),
        FailureMode.ONCE,
        reads=reads,
        writes=not reads,
        kind=(
            FaultKind.TORN_WRITE
            if fault.kind == FAULT_TORN_WRITE
            else FaultKind.IO_ERROR
        ),
    )
    return True


def injection_node_alphabet() -> Alphabet:
    """Request-plane ops for node storms (no control-plane interference:
    the plan owns disk lifecycle; the breaker owns demotion)."""
    return Alphabet(
        [
            OpSpec("Put", 3.0, _put_args),
            OpSpec("Get", 3.0, _key_args),
            OpSpec("Delete", 1.0, _key_args),
            OpSpec("Flush", 0.6, _no_args),
            OpSpec("Drain", 0.8, _no_args),
            OpSpec("Scrub", 0.3, _no_args),
        ]
    )


def injection_storm_alphabet() -> Alphabet:
    """Drain-heavier mix for brownout/overload storms.

    Slow disks only *show* their latency when queued writeback actually
    hits the medium, so storms flush/drain more often than the point-fault
    alphabet -- a write-heavy tenant on a browned-out node, not a pathological
    workload.
    """
    return Alphabet(
        [
            OpSpec("Put", 3.0, _put_args),
            OpSpec("Get", 2.0, _key_args),
            OpSpec("Delete", 0.7, _key_args),
            OpSpec("Flush", 1.0, _no_args),
            OpSpec("Drain", 1.6, _no_args),
            OpSpec("Scrub", 0.3, _no_args),
        ]
    )


class InjectionStoreHarness(StoreHarness):
    """Single-store conformance under a plan-driven fault storm."""

    def __init__(
        self,
        plan: FaultPlan,
        seed: int = 0,
        *,
        recorder: Recorder = NULL_RECORDER,
        journal: Optional[Journal] = None,
    ) -> None:
        super().__init__(
            None,
            seed,
            config=_storm_config(seed, recorder, journal),
            recorder=recorder,
        )
        self.plan = plan
        self.injector = FaultInjector(plan)
        self.armed = 0
        self.corrupted = False
        self.quarantined_keys: Set[bytes] = set()
        self.repaired_keys: Set[bytes] = set()

    # ------------------------------------------------------------------

    def apply(self, index: int, op: Operation) -> Optional[CheckFailure]:
        for fault in self.injector.due(index):
            self._inject(fault)
        if self.corrupted:
            # Silent corruption breaks the "a permitted read settles the key"
            # rule: a get served from cache says nothing about the flipped
            # bytes on disk.  Re-smear before every operation, so only the
            # recovery pass (which scrubs the medium) re-establishes certainty.
            self.model.smear()
        failure = super().apply(index, op)
        if (
            failure is not None
            and self.corrupted
            and "unexpected CorruptionError" in failure.message
        ):
            # With flipped bits on the medium, any operation that touches
            # the bad chunk (compaction, reclamation, eviction) may surface
            # CorruptionError: detected-not-wrong is exactly the contract.
            self.has_failed = True
            return None
        return failure

    def _inject(self, fault: PlannedFault) -> None:
        disk = self.system.disk
        if fault.kind == FAULT_BIT_FLIP:
            extent = _aim_read(self.system, fault.extent)
            if disk.corrupt(extent) is not None:
                self.corrupted = True
                self.has_failed = True
                self.armed += 1
            return
        if fault.kind == FAULT_PERMANENT:
            disk.arm_fault(_aim_write(self.system, fault.extent), FailureMode.PERMANENT)
        elif not _arm_once(self.system, fault):  # pragma: no cover
            # plan generation never emits other kinds here
            raise ValueError(f"store plan cannot inject {fault.kind!r}")
        self.armed += 1
        self.has_failed = True

    # ------------------------------------------------------------------

    @property
    def fired(self) -> int:
        """Faults that actually hit an IO (armed ones may never fire)."""
        stats = self.system.disk.stats
        return stats.injected_failures + stats.injected_corruptions

    def counters(self) -> Dict[str, int]:
        return {
            "armed": self.armed,
            "fired": self.fired,
            "retries": self.store.retry_count,
            "repaired": len(self.repaired_keys),
            "quarantined": len(self.quarantined_keys),
        }

    def settle_and_verify(self) -> Optional[str]:
        """The post-storm contract: scrub-repair + reboot restore health.

        Returns a failure detail string, or None when recovery conformed.
        """
        certain = self.model.kv.mapping()
        self.system.disk.clear_faults()
        # Warm pass: the cache may still hold clean bytes for chunks whose
        # on-disk copy is corrupt, so repairing before reboot can rewrite
        # them; after reboot those keys would only be quarantinable.
        try:
            self._absorb_repair(self.store.scrub_repair(), certain)
            self.store.drain()
        except ShardStoreError as exc:
            return (
                "recovery: warm scrub-repair/drain failed after faults "
                f"cleared: {type(exc).__name__}: {exc}"
            )
        try:
            self.system.clean_reboot()
        except ShardStoreError as exc:
            return (
                "recovery: clean reboot failed after faults cleared "
                f"(forward-progress violation): {type(exc).__name__}: {exc}"
            )
        try:
            self._absorb_repair(self.store.scrub_repair(), certain)
            final = self.store.scrub()
        except ShardStoreError as exc:
            return f"recovery: post-reboot scrub failed: {type(exc).__name__}: {exc}"
        if not final.clean:
            key, message = final.errors[0]
            return (
                "recovery: scrub still dirty after repair+quarantine: "
                f"{key!r}: {message}"
            )
        failure = self._verify_certain(certain)
        if failure is not None:
            return failure
        return self._probe_fresh_writes()

    def _absorb_repair(self, report: Any, certain: Dict[bytes, bytes]) -> Optional[str]:
        self.repaired_keys.update(report.repaired)
        for key in report.quarantined:
            # Quarantine is only legal for keys some failure touched; a
            # certain key has no failure to blame.
            if key in certain:
                return f"recovery: scrub quarantined untouched key {key!r}"
            self.quarantined_keys.add(key)
            self.model.apply(key, None)
        return None

    def _verify_certain(self, certain: Dict[bytes, bytes]) -> Optional[str]:
        for key in sorted(certain):
            try:
                value = self.store.get(key)
            except ShardStoreError as exc:
                return (
                    f"recovery: certain key {key!r} unreadable after "
                    f"recovery: {type(exc).__name__}: {exc}"
                )
            if value != certain[key]:
                return (
                    f"recovery: certain key {key!r} holds wrong data after "
                    "recovery"
                )
        return None

    def _probe_fresh_writes(self) -> Optional[str]:
        probe = b"__recovery_probe__"
        try:
            self.store.put(probe, b"alive")
            self.store.drain()
            if self.store.get(probe) != b"alive":
                return "recovery: fresh probe read returned wrong data"
            self.store.delete(probe)
        except ShardStoreError as exc:
            return (
                "recovery: fresh write/read/delete probe failed: "
                f"{type(exc).__name__}: {exc}"
            )
        return None


class InjectionNodeHarness(Harness):
    """Node request plane under a storm: self-healing must absorb it."""

    SETTLE_ATTEMPTS = 16
    PROBE_KEY = b"__injection_probe__"

    def __init__(
        self,
        plan: FaultPlan,
        seed: int = 0,
        num_disks: int = 3,
        *,
        breaker_enabled: bool = True,
        admission: Optional[AdmissionConfig] = None,
        recorder: Recorder = NULL_RECORDER,
        journal: Optional[Journal] = None,
    ) -> None:
        self.node = StorageNode(
            num_disks=num_disks,
            config=_storm_config(seed, recorder, journal),
            retry_policy=RetryPolicy(),
            breaker=(
                BreakerConfig() if breaker_enabled else BreakerConfig.disabled()
            ),
            admission=admission,
        )
        self.plan = plan
        self.injector = FaultInjector(plan)
        self.model = CandidateModel()
        self.armed = 0
        self.storm_events = 0

    # ------------------------------------------------------------------

    def apply(self, index: int, op: Operation) -> Optional[CheckFailure]:
        for fault in self.injector.due(index):
            self._inject(fault)
        handler = getattr(self, f"_op_{op.name.lower()}", None)
        if handler is None:
            return CheckFailure(index, op, f"unknown operation {op.name}")
        try:
            message = handler(*op.args)
        except ShardStoreError as exc:
            return CheckFailure(
                index, op, f"unexpected {type(exc).__name__}: {exc}"
            )
        if message is not None:
            return CheckFailure(index, op, message)
        return None

    def _inject(self, fault: PlannedFault) -> None:
        system = self.node.systems[fault.disk]
        disk = system.disk
        if fault.kind == FAULT_HEAL:
            disk.clear_faults()
            disk.set_latency(1)
            return
        if fault.kind == FAULT_SLOW_DISK:
            # A gray failure: the disk keeps answering, just slowly.  No
            # uncertainty -- slow is not wrong -- but the admission plane
            # (EWMA, SLOW trip, shedding) must react.
            disk.set_latency(max(1, fault.arg))
            self.storm_events += 1
            return
        if fault.kind == FAULT_BURST:
            self.node.hold_arrivals(fault.arg)
            self.storm_events += 1
            return
        if fault.kind == FAULT_PERMANENT_DISK:
            for extent in _DATA_EXTENTS:
                disk.arm_fault(extent, FailureMode.PERMANENT)
            self.armed += len(_DATA_EXTENTS)
        elif _arm_once(system, fault):
            self.armed += 1
        else:  # pragma: no cover - node plans never emit bit flips
            raise ValueError(f"node plan cannot inject {fault.kind!r}")

    @property
    def fired(self) -> int:
        return sum(
            system.disk.stats.injected_failures for system in self.node.systems
        )

    def counters(self) -> Dict[str, int]:
        return {
            **vars(self.node.stats),
            "armed": self.armed,
            "fired": self.fired,
            "storm_events": self.storm_events,
        }

    # ------------------------------------------------------------------
    # storm operations (section 4.4 typed-error contract)

    @staticmethod
    def _escaped(exc: ShardStoreError) -> Optional[str]:
        """The error-contract audit: raw transient IoErrors must not
        reach the node API (the request plane retries and wraps them)."""
        if isinstance(exc, IoError) and exc.transient:
            return (
                "transient IoError escaped the node request plane "
                f"unwrapped: {exc}"
            )
        return None

    def _attempted(self, exc: ShardStoreError, key: bytes, value: Any) -> Optional[str]:
        """A typed failure mid-write: the write may have partly applied."""
        escaped = self._escaped(exc)
        if escaped is None:
            self.model.attempt(key, value)
        return escaped

    def _op_put(self, key: bytes, value: bytes) -> Optional[str]:
        try:
            self.node.put(key, value)
        except (OverloadedError, DeadlineExceededError):
            # Shed before any substrate IO: a typed clean failure that
            # provably left the store unchanged -- no uncertainty smear.
            return None
        except (RetryableError, IoError) as exc:
            return self._attempted(exc, key, value)
        self.model.apply(key, value)
        return None

    def _op_get(self, key: bytes) -> Optional[str]:
        try:
            value: Optional[bytes] = self.node.get(key)
        except (OverloadedError, DeadlineExceededError):
            # Shed before any substrate IO: clean failure, state untouched.
            return None
        except NotFoundError:
            value = None
        except (RetryableError, IoError) as exc:
            # A typed failure with no data is allowed; state untouched.
            return self._escaped(exc)
        verdict = self.model.observe(key, value)
        if verdict.permitted:
            return None
        return (
            f"get({key!r}) returned wrong data under injection "
            f"({len(verdict.allowed)} allowed values)"
        )

    def _op_delete(self, key: bytes) -> Optional[str]:
        try:
            self.node.delete(key)
        except (OverloadedError, DeadlineExceededError):
            # Shed before the routing entry was dropped: state untouched.
            return None
        except KeyNotFoundError:
            return delete_verdict(self.model.observe(key, None), raised=True)
        except (RetryableError, IoError) as exc:
            return self._attempted(exc, key, None)
        failure = delete_verdict(self.model.observe_presence(key, True), raised=False)
        if failure is None:
            self.model.apply(key, None)
        return failure

    def _op_flush(self) -> Optional[str]:
        return self._background(self.node.flush)

    def _op_drain(self) -> Optional[str]:
        return self._background(self.node.drain)

    def _op_scrub(self) -> Optional[str]:
        # Mid-storm scrubs tolerate dirty reports (pending/torn state);
        # cleanliness is asserted by the settlement pass.
        return self._background(self.node.scrub_all)

    def _background(self, fn: Any) -> Optional[str]:
        try:
            fn()
        except (RetryableError, IoError) as exc:
            return self._escaped(exc)
        return None

    # ------------------------------------------------------------------

    def settle_and_verify(self) -> Optional[str]:
        """Post-storm settlement: the node must regain availability.

        Transient faults are absorbed by retries; a permanently failing
        disk keeps failing drains until the breaker trips, demotes it and
        migrates/strands its shards -- after which drains succeed without
        it.  With the breaker disabled there is no isolation mechanism and
        the settlement loop exhausts: the deterministic negative case CI
        relies on.

        Under an admission-enabled storm the gate additionally requires
        ``deadline_violations == 0``: every request that could not meet
        its deadline must have been *shed* (typed, pre-IO), never allowed
        to run late.  Violations only accrue with shedding disabled, so
        ``--no-shedding`` deterministically fails here -- the brownout
        negative control.  Settlement does **not** heal disk latency: a
        still-slow disk must have been isolated by the SLOW breaker trip,
        exactly as a dying disk must have been isolated by an error trip.
        """
        violations = self.node.stats.deadline_violations
        if violations:
            return (
                f"{violations} requests ran past their logical deadline "
                "without being shed (load-shedding disabled or mis-sized): "
                "the deadline-aware admission plane is load-bearing"
            )
        if self.node.admission is not None:
            # Post-storm cool-down: release any held arrivals and advance
            # the op clock far enough to drain every admission backlog, so
            # settlement measures recovered behaviour, not residual queue.
            self.node.advance_clock(self.node.admission.max_backlog_units * 4)
        certain = self.model.kv.mapping()
        last = "never attempted"
        for _ in range(self.SETTLE_ATTEMPTS):
            try:
                self.node.flush()
                self.node.drain()
                break
            except (RetryableError, IoError) as exc:
                last = f"{type(exc).__name__}: {exc}"
        else:
            return (
                f"node failed to settle after {self.SETTLE_ATTEMPTS} "
                f"flush/drain rounds (last error: {last}); the failing disk "
                "was never isolated"
            )
        self.node.scrub_repair_all()
        failure = self._verify_certain(certain)
        if failure is not None:
            return failure
        return self._probe_fresh_writes()

    def _verify_certain(self, certain: Dict[bytes, bytes]) -> Optional[str]:
        for key in sorted(certain):
            try:
                value = self.node.get(key)
            except (RetryableError, IoError) as exc:
                target = self.node.route_of(key)
                if target is not None and (
                    not self.node.in_service(target)
                    or self.node.degraded(target)
                ):
                    # Stranded on a demoted disk: honest, typed
                    # unavailability, not silent data loss.
                    continue
                return (
                    f"certain key {key!r} unreadable on a healthy disk: "
                    f"{type(exc).__name__}: {exc}"
                )
            except NotFoundError:
                return f"certain key {key!r} lost after settlement"
            if value != certain[key]:
                return f"certain key {key!r} holds wrong data after settlement"
        return None

    def _probe_fresh_writes(self) -> Optional[str]:
        """Fresh writes must eventually work, client-style: a probe that
        lands on a not-yet-tripped dying disk fails with a typed error and
        is retried; each failure feeds the breaker until the disk is
        demoted and steering avoids it.  Never succeeding means the node
        lost write availability for good."""
        last = "never attempted"
        for _ in range(self.SETTLE_ATTEMPTS):
            try:
                self.node.put(self.PROBE_KEY, b"alive")
                self.node.drain()
                if self.node.get(self.PROBE_KEY) != b"alive":
                    return "post-settlement probe read returned wrong data"
                self.node.delete(self.PROBE_KEY)
                return None
            except (RetryableError, IoError) as exc:
                escaped = self._escaped(exc)
                if escaped is not None:
                    return escaped
                last = f"{type(exc).__name__}: {exc}"
        return (
            "post-settlement fresh writes never succeeded after "
            f"{self.SETTLE_ATTEMPTS} attempts (last error: {last})"
        )


# ----------------------------------------------------------------------
# campaign entry point


def run_shard(spec: ShardSpec) -> ShardResult:
    """Picklable campaign entry point: one injection work unit.

    Params: ``harness`` (store/node), ``profile`` (a
    :data:`~repro.shardstore.injection.STORE_PROFILES` /
    :data:`~repro.shardstore.injection.NODE_PROFILES` name), ``sequences``,
    ``ops``, ``num_disks``, ``breaker_enabled``, ``shedding_enabled``,
    ``admission`` (defaults on for the ``brownout``/``overload`` profiles),
    ``trace``, ``journal``.  All randomness derives from ``spec.seed``
    (sequence ``i`` uses ``seed + i`` for both its fault plan and its
    operation stream), so shards replay byte-identically for any worker
    count.
    """
    from repro.evidence import check_journal

    section = SUITE_REGISTRY[spec.kind].section
    evidence_section = SUITE_TABLE["evidence"].section
    assert section is not None and evidence_section is not None
    harness_kind = spec.param("harness", "store")
    profile = spec.param("profile", "transient")
    storm = profile in STORM_PROFILES
    ops = spec.param("ops", STORM_OPS if storm else 40)
    num_disks = spec.param("num_disks", 3)
    breaker_enabled = bool(spec.param("breaker_enabled", True))
    shedding_enabled = bool(spec.param("shedding_enabled", True))
    journal_enabled = bool(spec.param("journal", False))
    admission: Optional[AdmissionConfig] = None
    if harness_kind == "node" and bool(spec.param("admission", storm)):
        admission = storm_admission(shedding_enabled)
    shard_recorder = RingRecorder() if spec.param("trace", False) else None
    recorder: Recorder = shard_recorder if shard_recorder else NULL_RECORDER
    if shard_recorder is not None:
        shard_recorder.event(
            "shard",
            kind=spec.kind,
            harness=harness_kind,
            profile=profile,
            seed=spec.seed,
        )

    if harness_kind == "node":
        alphabet = (
            injection_storm_alphabet() if storm else injection_node_alphabet()
        )
        ctx_kwargs: Dict[str, Any] = {"num_disks": num_disks}
    else:
        alphabet = store_alphabet()
        ctx_kwargs = {}

    def run_sequence(seed: int) -> SequenceOutcome:
        plan = FaultPlan.generate(
            seed,
            ops=ops,
            extents=_DATA_EXTENTS,
            profile=profile,
            num_disks=num_disks if harness_kind == "node" else 0,
        )
        # One journal per sequence: each sequence is its own fresh
        # store/model pair, so each journal replays independently through
        # the trace checker (in-memory; only digests reach the artifact).
        journal: Optional[Journal] = None
        if journal_enabled:
            journal = Journal(
                meta={
                    "source": "campaign-injection",
                    "harness": harness_kind,
                    "profile": profile,
                    "seed": seed,
                }
            )
            if shard_recorder is not None:
                journal.attach_recorder(shard_recorder)
        if harness_kind == "node":
            harness: Any = InjectionNodeHarness(
                plan,
                seed,
                num_disks=num_disks,
                breaker_enabled=breaker_enabled,
                admission=admission,
                recorder=recorder,
                journal=journal,
            )
        else:
            harness = InjectionStoreHarness(
                plan, seed, recorder=recorder, journal=journal
            )
        sequence = alphabet.generate_sequence(
            random.Random(seed), ops, BiasConfig(), **ctx_kwargs
        )
        failure = harness.run(sequence)
        if failure is None:
            detail = harness.settle_and_verify()
            if detail is not None:
                failure = CheckFailure(
                    len(sequence), Operation("Recover", ()), detail
                )
        outcome = SequenceOutcome(
            ops=len(sequence),
            detail=None if failure is None else str(failure),
            counters={"planned": len(plan.faults), **harness.counters()},
        )
        if journal is not None:
            head = journal.close()
            if shard_recorder is not None:
                shard_recorder.journal = None
            report = check_journal(journal.entries, require_seal=True)
            outcome.evidence = {
                "records": journal.records_written,
                "checked": report.checked,
                "skipped": report.skipped,
            }
            outcome.heads = [head]
            outcome.report = report
        return outcome

    result = run_storm_shard(
        spec,
        section,
        run_sequence,
        sequences=spec.param("sequences", 6),
        profile=profile,
        identity={
            "harness": harness_kind,
            "profile": profile,
            "breaker_enabled": breaker_enabled,
            "admission_enabled": admission is not None,
            "shedding_enabled": shedding_enabled,
        },
        evidence_keys=evidence_section.keys if journal_enabled else None,
        recorder=shard_recorder,
    )
    result.detector = "failure-injection conformance (section 4.4)"
    return result
