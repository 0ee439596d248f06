"""Conformance checking: implementation vs reference model (section 4).

The engine applies a generated operation sequence to both the ShardStore
implementation and its reference model, compares results operation by
operation, and checks cross-invariants (same key-value mapping) after each
step -- Fig. 3's ``proptest_index`` pattern generalised over alphabets.

Three harness flavours mirror the paper's property decomposition
(section 3.1):

* :class:`StoreHarness` -- sequential executions of one store.  In plain
  mode (no crash ops) the equivalence check is strict.  ``DirtyReboot``
  operations (section 5) trigger the crash-consistency checks: the
  *persistence* property via :class:`~repro.models.crash.CrashAwareModel`
  and, on clean ``Reboot``, the *forward-progress* property.  Failure
  injection ops (section 4.4) flip the harness into relaxed "has failed"
  equivalence: operations may fail with no data, but may never return
  wrong data.
* :class:`NodeHarness` -- the multi-disk RPC/control-plane API against the
  plain dict model.
* :class:`ChunkStoreModelHarness` -- exercises the *reference model* of the
  chunk store against its own invariants (locator uniqueness), which is how
  the paper's issue #15 (a bug in the model itself) is caught.

Everything is deterministic: the system under test is seeded from the
harness seed and all randomness in generated arguments lives in the
operation sequence itself, so a failing sequence replays and minimizes
(section 4.3).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.campaign.spec import ShardResult, ShardSpec

from repro.models.candidates import CandidateModel, Verdict
from repro.models.chunkstore import ReferenceChunkStore
from repro.models.crash import CrashAwareModel
from repro.models.kvstore import ReferenceKvStore
from repro.shardstore.config import StoreConfig
from repro.shardstore.dependency import Dependency
from repro.shardstore.disk import DiskGeometry, FailureMode
from repro.shardstore.errors import (
    CorruptionError,
    ExtentError,
    InvalidRequestError,
    IoError,
    KeyNotFoundError,
    NotFoundError,
    RetryableError,
    ShardStoreError,
)
from repro.shardstore.faults import FaultSet
from repro.shardstore.observability import NULL_RECORDER, Recorder
from repro.shardstore.resilience import BreakerConfig, RetryPolicy
from repro.shardstore.rpc import StorageNode
from repro.shardstore.store import RebootType, StoreSystem

from .alphabet import Alphabet, BiasConfig, Operation


@dataclass
class CheckFailure:
    """A conformance violation: which operation, and what went wrong."""

    op_index: int
    op: Operation
    message: str

    def __str__(self) -> str:
        return f"op[{self.op_index}] {self.op}: {self.message}"


class Harness:
    """Interface every conformance harness implements."""

    def apply(self, index: int, op: Operation) -> Optional[CheckFailure]:
        raise NotImplementedError

    def run(self, ops: Sequence[Operation]) -> Optional[CheckFailure]:
        for index, op in enumerate(ops):
            failure = self.apply(index, op)
            if failure is not None:
                return failure
        return None


def _small_test_config(
    faults: FaultSet,
    seed: int,
    uuid_magic_bias: float,
    recorder: Recorder = NULL_RECORDER,
) -> StoreConfig:
    """A store config sized so tests reach reclamation/rotation paths fast."""
    return StoreConfig(
        geometry=DiskGeometry(num_extents=12, extent_size=4096, page_size=128),
        faults=faults,
        seed=seed,
        uuid_magic_bias=uuid_magic_bias,
        recorder=recorder,
    )


class StoreHarness(Harness):
    """Single-store conformance with optional crash and failure checking."""

    def __init__(
        self,
        faults: Optional[FaultSet] = None,
        seed: int = 0,
        *,
        uuid_magic_bias: float = 0.0,
        config: Optional[StoreConfig] = None,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.faults = faults or FaultSet.none()
        self.system = StoreSystem(
            config
            or _small_test_config(self.faults, seed, uuid_magic_bias, recorder)
        )
        #: The specification, candidate sets for keys a failed op touched.
        self.model = CandidateModel()
        self.crash_model = CrashAwareModel(self.faults)
        self.has_failed = False
        #: Forward progress is only owed to operations issued since the
        #: last dirty crash -- earlier ops may have been (legally) lost.
        self._crash_epoch_start = 0

    # ------------------------------------------------------------------

    @property
    def store(self):
        return self.system.store

    def apply(self, index: int, op: Operation) -> Optional[CheckFailure]:
        handler = getattr(self, f"_op_{op.name.lower()}", None)
        if handler is None:
            return CheckFailure(index, op, f"unknown operation {op.name}")
        if op.name in ("Get", "Put", "Delete") and op.args:
            failure = self._check_invalid_key(index, op)
            if failure is not None or not _valid_key(op.args[0]):
                return failure  # both sides rejected (or one wrongly didn't)
        try:
            message = handler(*op.args)
        except ShardStoreError as exc:
            return CheckFailure(index, op, f"unexpected {type(exc).__name__}: {exc}")
        if message is not None:
            return CheckFailure(index, op, message)
        return self._check_invariants(index, op)

    def _check_invalid_key(self, index: int, op: Operation) -> Optional[CheckFailure]:
        """Invalid keys (shrinkers produce them) must be rejected by both
        sides identically -- and are then not a conformance failure."""
        key = op.args[0]
        if _valid_key(key):
            return None
        try:
            self.store.get(key)
            impl_rejects = False
        except InvalidRequestError:
            impl_rejects = True
        except ShardStoreError:
            impl_rejects = False
        if not impl_rejects:
            return CheckFailure(
                index, op, f"implementation accepted invalid key {key!r}"
            )
        return None

    # ------------------------------------------------------------------
    # request-plane operations

    def _op_get(self, key: bytes) -> Optional[str]:
        missing = None
        try:
            observed: Optional[bytes] = self.store.get(key)
        except IoError:
            # An injected IO error may fail the read outright: "allowed
            # to fail by returning no data" (section 4.4).  The key's
            # state is untouched; later reads must still be right.
            return None
        except (CorruptionError, ExtentError) as exc:
            if key in self.model.uncertain_keys():
                return None  # this key's state is legitimately unknown
            return f"get failed but model has {_render(self.model.kv.peek(key))}: {exc}"
        except NotFoundError as exc:
            observed, missing = None, exc
        # A permitted read pins down the uncertain state.
        verdict = self.model.observe(key, observed)
        if verdict.permitted:
            return None
        if missing is not None and len(verdict.allowed) == 1:
            return f"get failed but model has {_render(verdict.allowed[0])}: {missing}"
        return (
            f"get returned wrong data: {_render(observed)} not in "
            f"allowed {{{', '.join(_render(v) for v in verdict.allowed)}}}"
        )

    def _write_failed(self, key: bytes, value: Optional[bytes]) -> None:
        """IO failure mid-write, or out of space: it did not happen as far
        as the caller knows, but may have been partially applied."""
        self.has_failed = True
        self.model.attempt(key, value)

    def _op_put(self, key: bytes, value: bytes) -> Optional[str]:
        try:
            dep = self.store.put(key, value)
        except (IoError, ExtentError):
            return self._write_failed(key, value)
        self.model.apply(key, value)
        self.crash_model.record_put(key, value, dep)
        return None

    def _op_delete(self, key: bytes) -> Optional[str]:
        try:
            dep = self.store.delete(key)
        except KeyNotFoundError:
            # The KVNode contract: deleting an absent key raises.  No
            # tombstone was written, so the crash model records nothing.
            return delete_verdict(self.model.observe(key, None), raised=True)
        except (IoError, ExtentError):
            return self._write_failed(key, None)
        failure = delete_verdict(self.model.observe_presence(key, True), raised=False)
        if failure is None:
            self.model.apply(key, None)
            self.crash_model.record_delete(key, dep)
        return failure

    # ------------------------------------------------------------------
    # background operations (no-ops in the model)

    def _op_flushindex(self) -> Optional[str]:
        return self._background(self.store.flush_index)

    def _op_flushsuperblock(self) -> Optional[str]:
        return self._background(self.store.flush_superblock)

    def _op_compact(self) -> Optional[str]:
        return self._background(self.store.compact)

    def _op_reclaim(self, extent: int) -> Optional[str]:
        return self._background(lambda: self.store.reclaim(extent))

    def _op_partialreclaim(self, extent: int, limit: int) -> Optional[str]:
        """An interrupted GC pass (preemption mid-reclamation)."""
        return self._background(
            lambda: self.store.reclaim(extent, max_evacuations=max(0, limit))
        )

    def _op_pumpio(self, n: int) -> Optional[str]:
        return self._background(lambda: self.store.pump(max(0, n)))

    def _op_scrub(self) -> Optional[str]:
        """Scrubbing must find no corruption on a healthy store."""
        try:
            report = self.store.scrub()
        except (IoError, ExtentError):
            self.has_failed = True
            return None
        if self.has_failed:
            return None  # partially-applied writes may legitimately scan bad
        if not report.clean:
            key, message = report.errors[0]
            return f"scrub found corruption at {key}: {message}"
        return None

    def _background(self, fn: Callable[[], object]) -> Optional[str]:
        try:
            fn()
        except (IoError, ExtentError):
            # Injected IO failures abort background work; that is allowed.
            self.has_failed = True
        return None

    # ------------------------------------------------------------------
    # reboots (crash-consistency properties, section 5)

    def _op_reboot(self) -> Optional[str]:
        try:
            self.system.clean_reboot()
        except (IoError, ExtentError) as exc:
            if self.has_failed:
                return None
            return f"clean reboot failed (forward-progress violation): {exc}"
        if not self.has_failed:
            stuck = [
                op
                for op in self.crash_model.unpersisted_ops()
                if op.index >= self._crash_epoch_start
            ]
            if stuck:
                op = stuck[0]
                return (
                    "forward progress violated: dependency of op "
                    f"#{op.index} on key {op.key!r} is not persistent after "
                    "a clean shutdown"
                )
        return None

    def _op_dirtyreboot(
        self, flush_index: bool, flush_superblock: bool, pump: Optional[int]
    ) -> Optional[str]:
        touched = self.store.reclaimer.last_touched_keys
        try:
            self.system.dirty_reboot(
                RebootType(
                    flush_index=flush_index,
                    flush_superblock=flush_superblock,
                    pump=pump,
                )
            )
        except (IoError, ExtentError):
            self.has_failed = True
            return None
        self.crash_model.on_crash(touched)
        failure = self._check_persistence()
        if failure is not None:
            return failure
        self._resync_after_crash()
        self._crash_epoch_start = self.crash_model.op_count
        return None

    def _check_persistence(self) -> Optional[str]:
        """The section 5 persistence property, against the crashed state."""
        if self.has_failed:
            return None
        for key in self.crash_model.tracked_keys():
            allowed = self.crash_model.allowed_after_crash(key)
            try:
                observed: Optional[bytes] = self.store.get(key)
            except (NotFoundError, CorruptionError, ExtentError):
                observed = None
            if not allowed.permits(observed):
                values = sorted(v for v in allowed if v is not None)
                return (
                    f"persistence violated for key {key!r}: observed "
                    f"{_render(observed)}, allowed values "
                    f"{{{', '.join(_render(v) for v in values)}}}"
                    f"{' or absent' if None in allowed else ''}"
                )
        return None

    def _resync_after_crash(self) -> None:
        """Adopt the (legal) post-crash state as the new model baseline."""
        tracker = self.system.tracker
        observed: Dict[bytes, bytes] = {}
        for key in self.store.keys():
            try:
                observed[key] = self.store.get(key)
            except (NotFoundError, CorruptionError, ExtentError):
                continue
        self.model = CandidateModel()
        for key, value in observed.items():
            self.model.apply(key, value)
            # Anchor the observation: post-crash readable implies durable,
            # so later crashes must preserve it unless superseded.
            self.crash_model.record_put(key, value, Dependency.root(tracker))
        for key in self.crash_model.tracked_keys():
            if key not in observed:
                self.crash_model.record_delete(key, Dependency.root(tracker))

    # ------------------------------------------------------------------
    # failure injection (section 4.4)

    def _op_faildiskonce(self, extent: int) -> Optional[str]:
        if not 0 <= extent < self.system.config.geometry.num_extents:
            return None  # shrunk/out-of-range extent: nothing to arm
        self.system.disk.arm_fault(extent, FailureMode.ONCE)
        self.has_failed = True
        return None

    def _op_clearfaults(self) -> Optional[str]:
        self.system.disk.clear_faults()
        return None

    # ------------------------------------------------------------------
    # cross-invariants (Fig. 3 line 24)

    def _check_invariants(self, index: int, op: Operation) -> Optional[CheckFailure]:
        """Fig. 3 line 24: both sides must store the same mapping.

        Keys whose state is uncertain after an injected failure are skipped
        (the paper's relaxed equivalence); everything else stays strict --
        in particular, failures elsewhere never excuse wrong or lost data
        on untouched keys, which is exactly how issue #5 (reclamation
        forgetting chunks after a read error) is caught.
        """
        try:
            impl_keys = self.store.keys()
        except IoError:
            return None  # enumeration itself hit an injected fault
        uncertain = self.model.uncertain_keys()
        if uncertain:
            impl_keys = [key for key in impl_keys if key not in uncertain]
        # Sorted so the first-reported divergence is independent of the
        # per-process hash seed -- campaign artifacts must be
        # byte-identical across runs and worker counts.
        model_keys = self.model.kv.keys()
        if sorted(impl_keys) != model_keys:
            missing = set(model_keys) - set(impl_keys)
            extra = set(impl_keys) - set(model_keys)
            return CheckFailure(
                index,
                op,
                f"key sets diverge: missing {sorted(missing)!r}, "
                f"extra {sorted(extra)!r}",
            )
        for key in model_keys:
            try:
                impl_value = self.store.get(key)
            except IoError:
                continue  # injected read failure; key state untouched
            except ShardStoreError as exc:
                return CheckFailure(
                    index, op, f"invariant get({key!r}) failed: {exc}"
                )
            if impl_value != self.model.kv.peek(key):
                return CheckFailure(
                    index,
                    op,
                    f"value diverges for {key!r}: impl has "
                    f"{_render(impl_value)}, model {_render(self.model.kv.peek(key))}",
                )
        return None


def delete_verdict(verdict: Verdict, *, raised: bool) -> Optional[str]:
    """The failure text for a delete that ``raised`` KeyNotFoundError (an
    observation of absence) or succeeded (one of presence), if refused."""
    if verdict.permitted:
        return None
    if not raised:
        return "delete succeeded but the model lacks the key"
    if len(verdict.allowed) > 1:
        return "delete raised KeyNotFoundError for a key that cannot be absent"
    return "delete raised KeyNotFoundError but the model has the key"


class NodeHarness(Harness):
    """Storage-node (RPC + control plane) conformance (issues #4 etc.).

    With ``wire=True`` every request-plane operation is marshalled through
    the messaging protocol (:mod:`repro.shardstore.protocol`) -- encode,
    dispatch, decode -- so the request-parsing and routing layer the
    paper's section 8.3 singles out is validated by the same conformance
    properties as the store beneath it.
    """

    def __init__(
        self,
        faults: Optional[FaultSet] = None,
        seed: int = 0,
        num_disks: int = 3,
        *,
        wire: bool = False,
        recorder: Recorder = NULL_RECORDER,
        retry_policy: Optional["RetryPolicy"] = None,
        breaker: Optional["BreakerConfig"] = None,
    ) -> None:
        self.faults = faults or FaultSet.none()
        self.node = StorageNode(
            num_disks=num_disks,
            config=_small_test_config(self.faults, seed, 0.0, recorder),
            retry_policy=retry_policy,
            breaker=breaker,
        )
        self.model = ReferenceKvStore()
        self.wire = wire

    # -- wire-mode plumbing ---------------------------------------------

    def _wire(self, request):
        from repro.shardstore.protocol import (
            decode_response,
            dispatch,
            encode_request,
        )

        return decode_response(dispatch(self.node, encode_request(request)))

    def _wire_get(self, key: bytes) -> Optional[bytes]:
        from repro.shardstore.protocol import Request

        response = self._wire(Request(op="get", key=key))
        if response.status == "ok":
            return response.value
        if response.status in ("not_found", "retry"):
            return None
        raise CorruptionError(f"wire get failed: {response.message}")

    def apply(self, index: int, op: Operation) -> Optional[CheckFailure]:
        try:
            message = self._dispatch(op)
        except ShardStoreError as exc:
            return CheckFailure(index, op, f"unexpected {type(exc).__name__}: {exc}")
        if message is not None:
            return CheckFailure(index, op, message)
        return None

    def _dispatch(self, op: Operation) -> Optional[str]:
        if self.wire and op.name in ("Put", "Get", "Delete", "ListShards"):
            return self._dispatch_wire(op)
        name, args = op.name, op.args
        if name in ("Put", "Get", "Delete") and args and not _valid_key(args[0]):
            try:
                self.node.get(args[0])
                return f"node accepted invalid key {args[0]!r}"
            except InvalidRequestError:
                return None
            except ShardStoreError:
                return f"node mishandled invalid key {args[0]!r}"
        if name == "BulkCreate":
            (pairs,) = args
            pairs = tuple(p for p in pairs if _valid_key(p[0]))
            op = Operation(name, (pairs,))
            name, args = op.name, op.args
        if name == "BulkDelete":
            (keys,) = args
            keys = tuple(k for k in keys if _valid_key(k))
            op = Operation(name, (keys,))
            name, args = op.name, op.args
        if name == "Put":
            key, value = args
            self.node.put(key, value)
            self.model.put(key, value)
            return None
        if name == "Get":
            (key,) = args
            try:
                model_value: Optional[bytes] = self.model.get(key)
            except NotFoundError:
                model_value = None
            try:
                impl_value: Optional[bytes] = self.node.get(key)
            except (NotFoundError, RetryableError):
                impl_value = None
            except CorruptionError as exc:
                return f"get corrupted: {exc}"
            if impl_value != model_value:
                return (
                    f"get diverges: impl {_render(impl_value)}, "
                    f"model {_render(model_value)}"
                )
            return None
        if name == "Delete":
            (key,) = args
            try:
                self.node.delete(key)
            except RetryableError:
                return None  # target out of service; model keeps the key
            except KeyNotFoundError:
                if self.model.contains(key):
                    return "delete raised KeyNotFoundError but the model has the key"
                return None
            if not self.model.contains(key):
                return "delete succeeded but the model lacks the key"
            self.model.delete(key)
            return None
        if name == "ListShards":
            listed = set(self.node.keys())
            expected = set(self.model.keys())
            if listed != expected:
                return (
                    f"listing diverges: impl {sorted(listed)!r}, "
                    f"model {sorted(expected)!r}"
                )
            return None
        if name == "BulkCreate":
            (pairs,) = args
            self.node.bulk_create(list(pairs))
            for key, value in pairs:
                self.model.put(key, value)
            return None
        if name == "BulkDelete":
            (keys,) = args
            self.node.bulk_delete(list(keys))
            for key in keys:
                if self.model.contains(key):
                    self.model.delete(key)
            return None
        if name == "MigrateShard":
            key, target = args
            try:
                moved = self.node.migrate_shard(key, target)
            except RetryableError:
                return None  # target out of service: allowed failure
            if moved != self.model.contains(key):
                return (
                    f"migrate_shard({key!r}) returned {moved}, model "
                    f"says present={self.model.contains(key)}"
                )
            return self._check_all_keys()
        if name == "RemoveDisk":
            (disk_id,) = args
            try:
                self.node.remove_disk(disk_id)
            except InvalidRequestError:
                pass  # already removed / last disk: allowed no-op
            return self._check_all_keys()
        if name == "ReturnDisk":
            (disk_id,) = args
            try:
                self.node.return_disk(disk_id)
            except InvalidRequestError:
                pass
            return self._check_all_keys()
        return f"unknown operation {name}"

    def _dispatch_wire(self, op: Operation) -> Optional[str]:
        """Request-plane ops marshalled through the messaging protocol."""
        from repro.shardstore.protocol import Request

        name, args = op.name, op.args
        if name in ("Put", "Get", "Delete") and args and not _valid_key(args[0]):
            response = self._wire(Request(op="get", key=args[0]))
            if response.status != "invalid":
                return f"wire accepted invalid key {args[0]!r}: {response}"
            return None
        if name == "Put":
            key, value = args
            response = self._wire(Request(op="put", key=key, value=value))
            if not response.ok:
                return f"wire put failed: {response}"
            self.model.put(key, value)
            return None
        if name == "Get":
            (key,) = args
            observed = self._wire_get(key)
            try:
                expected: Optional[bytes] = self.model.get(key)
            except NotFoundError:
                expected = None
            if observed != expected:
                return (
                    f"wire get diverges: impl {_render(observed)}, "
                    f"model {_render(expected)}"
                )
            return None
        if name == "Delete":
            (key,) = args
            response = self._wire(Request(op="delete", key=key))
            if response.status == "retry":
                return None  # out-of-service target; model keeps the key
            if response.status == "not_found":
                if self.model.contains(key):
                    return f"wire delete lost the key: {response}"
                return None
            if not response.ok:
                return f"wire delete failed: {response}"
            if not self.model.contains(key):
                return "wire delete succeeded but the model lacks the key"
            self.model.delete(key)
            return None
        if name == "ListShards":
            from repro.shardstore.protocol import Request as _Request

            response = self._wire(_Request(op="list"))
            if not response.ok:
                return f"wire list failed: {response}"
            if sorted(response.shards) != self.model.keys():
                return (
                    f"wire listing diverges: {sorted(response.shards)!r} vs "
                    f"{self.model.keys()!r}"
                )
            return None
        return f"wire mode cannot route {name}"

    def _check_all_keys(self) -> Optional[str]:
        """Control-plane ops must never lose or change shards."""
        for key in self.model.keys():
            try:
                impl_value = self.node.get(key)
            except RetryableError:
                continue  # temporarily unroutable is availability, not loss
            except ShardStoreError as exc:
                return f"shard {key!r} lost by control-plane op: {exc}"
            if impl_value != self.model.get(key):
                return (
                    f"shard {key!r} changed by control-plane op: "
                    f"{_render(impl_value)} != {_render(self.model.get(key))}"
                )
        return None


class ChunkStoreModelHarness(Harness):
    """Checks the chunk-store *reference model's* own invariants.

    The paper's issue #15 was a bug in the model, not the implementation;
    this harness is the invariant check that caught it.
    """

    def __init__(self, faults: Optional[FaultSet] = None, seed: int = 0) -> None:
        self.model = ReferenceChunkStore(faults or FaultSet.none())
        self._live: List = []

    def apply(self, index: int, op: Operation) -> Optional[CheckFailure]:
        if op.name == "Put":
            _, value = op.args
            locator = self.model.put(value)
            self._live.append((locator, value))
        elif op.name == "Delete":
            if self._live:
                locator, _ = self._live.pop(0)
                self.model.delete(locator)
        elif op.name == "Get":
            for locator, value in self._live:
                try:
                    stored = self.model.get(locator)
                except NotFoundError:
                    return CheckFailure(
                        index, op, f"live locator {int(locator)} unreadable"
                    )
                if stored != value:
                    return CheckFailure(
                        index,
                        op,
                        f"locator {int(locator)} returns wrong data "
                        "(aliased by reuse?)",
                    )
        if not self.model.locators_unique():
            return CheckFailure(index, op, "model issued a duplicate locator")
        return None


# ----------------------------------------------------------------------
# the runner


@dataclass
class ConformanceReport:
    """Outcome of a conformance run (many random sequences)."""

    sequences_run: int = 0
    ops_run: int = 0
    failure: Optional[CheckFailure] = None
    failing_sequence: Optional[List[Operation]] = None
    failing_seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        return self.failure is None


def run_conformance(
    harness_factory: Callable[[int], Harness],
    alphabet: Alphabet,
    *,
    sequences: int = 50,
    ops_per_sequence: int = 60,
    bias: Optional[BiasConfig] = None,
    base_seed: int = 0,
    ctx_kwargs: Optional[dict] = None,
) -> ConformanceReport:
    """Run many random sequences; stop at (and report) the first failure.

    ``harness_factory(seed)`` must build a fresh, deterministic harness:
    replaying the same seed and sequence must reproduce the failure, which
    is what makes minimization possible.
    """
    bias = bias or BiasConfig()
    report = ConformanceReport()
    kwargs = ctx_kwargs or {}
    for sequence_index in range(sequences):
        seed = base_seed + sequence_index
        rng = random.Random(seed)
        ops = alphabet.generate_sequence(rng, ops_per_sequence, bias, **kwargs)
        harness = harness_factory(seed)
        failure = harness.run(ops)
        report.sequences_run += 1
        report.ops_run += len(ops)
        if failure is not None:
            report.failure = failure
            report.failing_sequence = ops
            report.failing_seed = seed
            return report
    return report


def replay_fails(
    harness_factory: Callable[[int], Harness], seed: int
) -> Callable[[List[Operation]], bool]:
    """A deterministic failure predicate for the minimizer."""

    def fails(ops: List[Operation]) -> bool:
        harness = harness_factory(seed)
        return harness.run(list(ops)) is not None

    return fails


# ----------------------------------------------------------------------
# campaign shard entry point


def run_shard(spec: "ShardSpec") -> "ShardResult":
    """Picklable campaign entry point: one conformance work unit.

    ``spec.params`` select the harness (``store``/``node``/``model``), the
    alphabet, an optional injected fault, and the sequence budget; all
    randomness derives from ``spec.seed``, so rerunning the spec is
    byte-identical and any failure replays from its recorded seed alone
    (``repro conformance --seed <failing_seed> --sequences 1``).
    """
    from repro.campaign.spec import ShardFailure, ShardResult
    from repro.shardstore.faults import Fault, FaultSet, component_of
    from repro.shardstore.observability import RingRecorder

    from .alphabet import ALPHABETS
    from .coverage import LineCoverage
    from .minimize import minimize

    fault_name = spec.param("fault")
    faults = (
        FaultSet.only(Fault[fault_name]) if fault_name else FaultSet.none()
    )
    uuid_bias = spec.param("uuid_bias", 0.0)
    harness_kind = spec.param("harness", "store")
    alphabet = ALPHABETS[spec.param("alphabet", "store")]()
    ctx_kwargs = None
    num_disks = spec.param("num_disks", 3)
    if harness_kind == "node":
        ctx_kwargs = {"num_disks": num_disks}

    # Fault-matrix shards run with ``retries_disabled`` so the node keeps
    # the historical fail-fast semantics the Fig. 5 detectors were tuned
    # against (e.g. fault #5's dropped-shard read must surface, not be
    # masked by a retry or absorbed by a breaker demotion).
    retries_disabled = bool(spec.param("retries_disabled", False))

    def make_factory(recorder: Recorder) -> Callable[[int], Harness]:
        if harness_kind == "node":
            retry_policy = RetryPolicy.disabled() if retries_disabled else None
            breaker = BreakerConfig.disabled() if retries_disabled else None
            return lambda s: NodeHarness(
                faults,
                s,
                num_disks=num_disks,
                recorder=recorder,
                retry_policy=retry_policy,
                breaker=breaker,
            )
        if harness_kind == "model":
            return lambda s: ChunkStoreModelHarness(faults, s)
        return lambda s: StoreHarness(
            faults, s, uuid_magic_bias=uuid_bias, recorder=recorder
        )

    def seed_recorder(recorder: RingRecorder) -> RingRecorder:
        """Stamp shard identity (and the armed fault) into a fresh trace."""
        recorder.event(
            "shard", kind=spec.kind, harness=harness_kind, seed=spec.seed
        )
        if fault_name:
            fault = Fault[fault_name]
            recorder.fault_event(
                fault, component_of(fault), "armed for this shard"
            )
        return recorder

    trace_enabled = bool(spec.param("trace", False))
    shard_recorder = seed_recorder(RingRecorder()) if trace_enabled else None
    factory = make_factory(shard_recorder if trace_enabled else NULL_RECORDER)
    bias = (
        BiasConfig.unbiased() if spec.param("unbiased", False) else BiasConfig()
    )

    collector = LineCoverage() if spec.param("coverage", False) else None
    run = lambda: run_conformance(  # noqa: E731
        factory,
        alphabet,
        sequences=spec.param("sequences", 25),
        ops_per_sequence=spec.param("ops", 60),
        bias=bias,
        base_seed=spec.seed,
        ctx_kwargs=ctx_kwargs,
    )
    if collector is not None:
        with collector:
            report = run()
    else:
        report = run()

    failures = []
    if report.failure is not None:
        minimized: Optional[List[str]] = None
        reduced = report.failing_sequence
        if spec.param("minimize", True) and report.failing_sequence:
            fails = replay_fails(factory, report.failing_seed)
            reduced, _ = minimize(report.failing_sequence, fails)
            minimized = [str(op) for op in reduced]
        failure_trace: Optional[List] = None
        failure_events: Optional[List] = None
        if trace_enabled and reduced:
            # Focused evidence: replay the (minimized) failing sequence on a
            # fresh recorder, so the failure record's trace covers exactly
            # the reproducer rather than the whole shard.
            focus = seed_recorder(RingRecorder())
            make_factory(focus)(report.failing_seed).run(list(reduced))
            focus_snap = focus.snapshot()
            failure_trace = focus_snap["trace"]
            failure_events = focus_snap["fault_events"]
        failures.append(
            ShardFailure(
                kind=spec.kind,
                seed=report.failing_seed,
                detail=str(report.failure),
                fault=fault_name,
                minimized=minimized,
                trace=failure_trace,
                fault_events=failure_events,
            )
        )
    coverage_lines: Optional[List[Tuple[str, int]]] = None
    if collector is not None:
        coverage_lines = sorted(
            (os.path.basename(filename), lineno)
            for filename, lineno in collector.report.lines
        )
    shard_snap = shard_recorder.snapshot() if shard_recorder else None
    return ShardResult(
        shard_id=spec.shard_id,
        kind=spec.kind,
        seed=spec.seed,
        cases=report.sequences_run,
        ops=report.ops_run,
        failures=failures,
        expected_failure=bool(fault_name),
        detector=spec.param("detector") or _default_detector(fault_name),
        fault=fault_name,
        coverage_lines=coverage_lines,
        metrics=shard_snap["metrics"] if shard_snap else None,
        fault_events=shard_snap["fault_events"] if shard_snap else None,
        trace=shard_snap["trace"] if shard_snap else None,
    )


def _default_detector(fault_name: Optional[str]) -> str:
    if not fault_name:
        return ""
    from repro.shardstore.faults import Fault, detector_for

    return detector_for(Fault[fault_name])


def _valid_key(key) -> bool:
    from repro.shardstore.store import MAX_KEY_LEN

    return isinstance(key, bytes) and 0 < len(key) <= MAX_KEY_LEN


def _render(value: Optional[bytes]) -> str:
    if value is None:
        return "<absent>"
    if len(value) > 16:
        return f"<{len(value)} bytes>"
    return repr(value)
