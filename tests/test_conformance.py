"""Tests for the conformance engine itself (runner, relaxation, replay)."""

import random

import pytest

from repro.campaign.fault_matrix import DIRECTED_PLAN, PBT_PLAN, directed_ops
from repro.campaign.injection import InjectionNodeHarness
from repro.core import (
    BiasConfig,
    ChunkStoreModelHarness,
    NodeHarness,
    StoreHarness,
    crash_alphabet,
    failure_alphabet,
    node_alphabet,
    replay_fails,
    run_conformance,
    store_alphabet,
)
from repro.core.alphabet import ALPHABETS, Operation
from repro.shardstore import Fault, FaultPlan, FaultSet
from repro.shardstore.errors import IoError, OverloadedError, RetryableError
from repro.shardstore.store import ShardStore


class TestBaselines:
    """Fault-free implementations must pass every suite (no false alarms)."""

    def test_store_alphabet_clean(self):
        report = run_conformance(
            lambda seed: StoreHarness(FaultSet.none(), seed),
            store_alphabet(),
            sequences=15,
            ops_per_sequence=60,
        )
        assert report.passed, report.failure
        assert report.sequences_run == 15
        assert report.ops_run == 15 * 60

    def test_crash_alphabet_clean(self):
        report = run_conformance(
            lambda seed: StoreHarness(FaultSet.none(), seed),
            crash_alphabet(),
            sequences=15,
            ops_per_sequence=60,
        )
        assert report.passed, report.failure

    def test_failure_alphabet_clean(self):
        report = run_conformance(
            lambda seed: StoreHarness(FaultSet.none(), seed),
            failure_alphabet(),
            sequences=15,
            ops_per_sequence=60,
        )
        assert report.passed, report.failure

    def test_node_alphabet_clean(self):
        report = run_conformance(
            lambda seed: NodeHarness(FaultSet.none(), seed),
            node_alphabet(),
            sequences=10,
            ops_per_sequence=50,
            ctx_kwargs={"num_disks": 3},
        )
        assert report.passed, report.failure

    def test_unbiased_store_alphabet_clean(self):
        """Regression: the wide-keyspace workload that exposed the cache
        prefix-fabrication bug must stay green."""
        report = run_conformance(
            lambda seed: StoreHarness(FaultSet.none(), seed),
            store_alphabet(),
            sequences=25,
            ops_per_sequence=60,
            bias=BiasConfig.unbiased(),
            base_seed=20,
        )
        assert report.passed, report.failure


class TestDetection:
    """Pinned-seed smoke checks that each class of fault is caught.

    The full 16-issue matrix lives in benchmarks/test_fig5_detection_matrix.
    """

    def test_detects_functional_fault(self):
        report = run_conformance(
            lambda seed: StoreHarness(
                FaultSet.only(Fault.CACHE_NOT_DRAINED_ON_RESET), seed
            ),
            store_alphabet(),
            sequences=10,
            ops_per_sequence=80,
        )
        assert not report.passed
        assert report.failing_sequence is not None
        assert report.failing_seed is not None

    def test_detects_crash_fault(self):
        report = run_conformance(
            lambda seed: StoreHarness(
                FaultSet.only(Fault.CACHE_WRITE_MISSING_SOFT_PTR_DEP), seed
            ),
            crash_alphabet(),
            sequences=10,
            ops_per_sequence=80,
        )
        assert not report.passed
        assert "persistence" in report.failure.message

    def test_detects_node_fault(self):
        report = run_conformance(
            lambda seed: NodeHarness(
                FaultSet.only(Fault.DISK_RETURN_DROPS_SHARDS), seed
            ),
            node_alphabet(),
            sequences=10,
            ops_per_sequence=60,
            ctx_kwargs={"num_disks": 3},
        )
        assert not report.passed

    def test_detects_model_fault(self):
        report = run_conformance(
            lambda seed: ChunkStoreModelHarness(
                FaultSet.only(Fault.MODEL_REUSES_LOCATORS), seed
            ),
            store_alphabet(),
            sequences=5,
            ops_per_sequence=60,
        )
        assert not report.passed


class TestReplayDeterminism:
    def test_failing_sequence_replays(self):
        factory = lambda seed: StoreHarness(  # noqa: E731
            FaultSet.only(Fault.CACHE_NOT_DRAINED_ON_RESET), seed
        )
        report = run_conformance(
            factory, store_alphabet(), sequences=10, ops_per_sequence=80
        )
        assert not report.passed
        fails = replay_fails(factory, report.failing_seed)
        assert fails(report.failing_sequence)
        assert fails(report.failing_sequence), "replay must be repeatable"

    def test_prefix_without_trigger_passes(self):
        factory = lambda seed: StoreHarness(  # noqa: E731
            FaultSet.only(Fault.CACHE_NOT_DRAINED_ON_RESET), seed
        )
        report = run_conformance(
            factory, store_alphabet(), sequences=10, ops_per_sequence=80
        )
        fails = replay_fails(factory, report.failing_seed)
        assert not fails(report.failing_sequence[: report.failure.op_index])


class TestRelaxedEquivalence:
    def test_invalid_key_ops_are_not_failures(self):
        harness = StoreHarness(FaultSet.none(), 0)
        assert harness.apply(0, Operation("Put", (b"", b"v"))) is None
        assert harness.apply(1, Operation("Get", (b"",))) is None
        assert harness.apply(2, Operation("Delete", (b"x" * 5000,))) is None

    def test_failed_put_leaves_key_uncertain(self):
        from repro.shardstore import IoError as ShardIoError

        harness = StoreHarness(FaultSet.none(), 0)
        assert harness.apply(0, Operation("Put", (b"k", b"before"))) is None
        # Force the next put to fail mid-way (as an injected IO error
        # surfacing synchronously would).
        original_put = harness.system.store.put

        def failing_put(key, value):
            raise ShardIoError("injected synchronous failure")

        harness.system.store.put = failing_put
        assert harness.apply(1, Operation("Put", (b"k", b"after"))) is None
        assert harness.has_failed
        assert harness.model.candidates(b"k") == (b"before", b"after")
        harness.system.store.put = original_put
        # Either the old or the attempted value is now acceptable for k.
        assert harness.apply(2, Operation("Get", (b"k",))) is None
        # A successful read pins the state back down.
        assert b"k" not in harness.model.uncertain_keys()
        assert harness.model.candidates(b"k") == (b"before",)

    def test_untouched_keys_stay_strict_after_failure(self):
        harness = StoreHarness(FaultSet.none(), 0)
        assert harness.apply(0, Operation("Put", (b"stable", b"S"))) is None
        assert harness.apply(1, Operation("FailDiskOnce", (5,))) is None
        assert harness.has_failed
        # Corrupt the stable key's value behind the harness's back: the
        # strict per-key check must flag it despite has_failed.
        harness.model.kv.put(b"stable", b"tampered-expectation")
        failure = harness.apply(2, Operation("Get", (b"stable",)))
        assert failure is not None

    def test_out_of_range_fail_op_ignored(self):
        harness = StoreHarness(FaultSet.none(), 0)
        assert harness.apply(0, Operation("FailDiskOnce", (999,))) is None
        assert not harness.has_failed


class TestRunnerBookkeeping:
    def test_base_seed_offsets_sequences(self):
        seen = []

        class Probe(StoreHarness):
            def __init__(self, seed):
                seen.append(seed)
                super().__init__(FaultSet.none(), seed)

        run_conformance(
            Probe, store_alphabet(), sequences=3, ops_per_sequence=5, base_seed=70
        )
        assert seen == [70, 71, 72]

    def test_unknown_operation_reported(self):
        harness = StoreHarness(FaultSet.none(), 0)
        failure = harness.apply(0, Operation("Teleport", ()))
        assert failure is not None
        assert "unknown operation" in failure.message


class TestWireModeConformance:
    """The node suite driven through the messaging protocol (section 8.3)."""

    def test_wire_mode_clean(self):
        report = run_conformance(
            lambda seed: NodeHarness(FaultSet.none(), seed, wire=True),
            node_alphabet(),
            sequences=10,
            ops_per_sequence=50,
            ctx_kwargs={"num_disks": 3},
        )
        assert report.passed, report.failure

    def test_wire_mode_detects_node_fault(self):
        report = run_conformance(
            lambda seed: NodeHarness(
                FaultSet.only(Fault.DISK_RETURN_DROPS_SHARDS), seed, wire=True
            ),
            node_alphabet(),
            sequences=10,
            ops_per_sequence=60,
            ctx_kwargs={"num_disks": 3},
        )
        assert not report.passed

    def test_wire_mode_rejects_invalid_keys(self):
        harness = NodeHarness(FaultSet.none(), 0, wire=True)
        assert harness.apply(0, Operation("Put", (b"", b"v"))) is None
        assert harness.apply(1, Operation("Get", (b"x" * 5000,))) is None


def _storm_harness():
    """The storm subclass with an empty plan: only the shared rules act."""
    return InjectionNodeHarness(FaultPlan(0, "transient", 0, ()), 0)


#: Over the wire a store failure arrives as a cause-less ``retry``, so the
#: rules that read ``__cause__`` are pinned on the in-process transports.
DIRECT_AND_STORM = pytest.mark.parametrize(
    "make",
    [lambda: NodeHarness(FaultSet.none(), 0), _storm_harness],
    ids=["direct", "storm"],
)
NODE_HARNESSES = pytest.mark.parametrize(
    "make",
    [
        lambda: NodeHarness(FaultSet.none(), 0),
        lambda: NodeHarness(FaultSet.none(), 0, wire=True),
        _storm_harness,
    ],
    ids=["direct", "wire", "storm"],
)


def _raising(error, then=None):
    def call(*args, **kwargs):
        if then is not None:
            then(*args)
        raise error

    return call


class TestNodeErrorContract:
    """The node's error contract (repro.errors), read once by every node
    harness.  Fault-free traffic never reaches these write rules, so each
    is pinned here with a scripted node."""

    @NODE_HARNESSES
    def test_refused_delete_that_dropped_the_route_fails_the_next_get(self, make):
        harness = make()
        assert harness.apply(0, Operation("Put", (b"k", b"v"))) is None
        # A cause-less RetryableError says "refused before any store IO",
        # so the harness keeps the key; a node that dropped it anyway is
        # caught by the next read.
        harness.node.delete = _raising(
            RetryableError("disk 0 is out of service"), then=harness.node.delete
        )
        assert harness.apply(1, Operation("Delete", (b"k",))) is None
        assert harness.model.candidates(b"k") == (b"v",)
        failure = harness.apply(2, Operation("Get", (b"k",)))
        assert failure is not None
        assert failure.message == "get diverges: impl <absent>, model b'v'"

    @NODE_HARNESSES
    @pytest.mark.parametrize(
        "error", [RetryableError("no disk in service"), OverloadedError("shed")]
    )
    def test_refused_put_leaves_the_key_unchanged(self, make, error):
        harness = make()
        assert harness.apply(0, Operation("Put", (b"k", b"old"))) is None
        harness.node.put = _raising(error)
        assert harness.apply(1, Operation("Put", (b"k", b"new"))) is None
        assert harness.model.candidates(b"k") == (b"old",)

    @DIRECT_AND_STORM
    @pytest.mark.parametrize("op", [("Put", (b"k", b"new")), ("Delete", (b"k",))])
    def test_store_failure_behind_a_retryable_error_widens_the_key(self, make, op):
        harness = make()
        assert harness.apply(0, Operation("Put", (b"k", b"old"))) is None
        stores = [lane.store for lane in harness.node.lanes]
        for store in stores:
            store.put = store.delete = _raising(IoError("injected", transient=True))
        # The lane retries the transient failure, then wraps it ``from``
        # the IoError: that cause is what tells a failed write from a
        # refused one.
        with pytest.raises(RetryableError) as info:
            getattr(harness.node, op[0].lower())(*op[1])
        assert isinstance(info.value.__cause__, IoError)
        assert harness.apply(1, Operation(*op)) is None
        value = op[1][1] if op[0] == "Put" else None
        assert harness.model.candidates(b"k") == (b"old", value)
        for store in stores:
            del store.put, store.delete
        # Either outcome reads as permitted; the read settles the key.
        assert harness.apply(2, Operation("Get", (b"k",))) is None
        assert b"k" not in harness.model.uncertain_keys()

    @DIRECT_AND_STORM
    def test_permanent_io_error_on_a_write_widens_the_key(self, make):
        harness = make()
        assert harness.apply(0, Operation("Put", (b"k", b"old"))) is None
        harness.node.put = _raising(IoError("dead disk", transient=False))
        assert harness.apply(1, Operation("Put", (b"k", b"new"))) is None
        assert harness.model.candidates(b"k") == (b"old", b"new")

    @NODE_HARNESSES
    def test_retryable_get_is_no_observation(self, make):
        harness = make()
        assert harness.apply(0, Operation("Put", (b"k", b"v"))) is None
        harness.node.get = _raising(RetryableError("disk 0 is out of service"))
        assert harness.apply(1, Operation("Get", (b"k",))) is None
        assert harness.model.candidates(b"k") == (b"v",)

    @DIRECT_AND_STORM
    @pytest.mark.parametrize("name", ["put", "get", "delete"])
    def test_transient_io_error_reaching_the_api_fails(self, make, name):
        harness = make()
        assert harness.apply(0, Operation("Put", (b"k", b"v"))) is None
        setattr(harness.node, name, _raising(IoError("flaky", transient=True)))
        args = (b"k", b"v2") if name == "put" else (b"k",)
        failure = harness.apply(1, Operation(name.capitalize(), args))
        assert failure is not None
        assert failure.message == (
            "transient IoError escaped the node request plane unwrapped: flaky"
        )


class TestWireAgreesWithDirect:
    """One set of handlers: the wire transport changes no verdict and no
    failure text."""

    def _failure(self, faults, seed, wire):
        report = run_conformance(
            lambda s: NodeHarness(faults, s, wire=wire),
            node_alphabet(),
            sequences=1,
            ops_per_sequence=60,
            base_seed=seed,
            ctx_kwargs={"num_disks": 3},
        )
        return None if report.passed else str(report.failure)

    def test_fault_free_seeds_agree(self):
        for seed in range(50):
            assert self._failure(FaultSet.none(), seed, False) is None
            assert self._failure(FaultSet.none(), seed, True) is None

    def test_fault_4_fails_identically(self):
        faults = FaultSet.only(Fault.DISK_RETURN_DROPS_SHARDS)
        direct = self._failure(faults, 1, False)
        assert direct == (
            "op[58] ReturnDisk(2): shard b'k11' changed by control-plane op: "
            "<513 bytes> != <189 bytes>"
        )
        assert self._failure(faults, 1, True) == direct


class FullSweepStoreHarness(StoreHarness):
    """The reference rule: every model key's value read back after every
    op, whatever the op could change."""

    def _check_invariants(self, index, op, touched=None):
        return super()._check_invariants(index, op)


def _outcome(harness_cls, faults, alphabet, *, sequences, ops, seed, bias=0.0):
    report = run_conformance(
        lambda s: harness_cls(faults, s, uuid_magic_bias=bias),
        ALPHABETS[alphabet](),
        sequences=sequences,
        ops_per_sequence=ops,
        base_seed=seed,
    )
    return report.failing_seed, None if report.passed else str(report.failure)


class TestSweepAgreesWithFullSweep:
    """Reading back only the touched key after a quiet request op reports
    the same first failure as reading back every key after every op."""

    @pytest.mark.parametrize("alphabet", ["store", "crash", "failure"])
    def test_fault_free_alphabets(self, alphabet):
        args = (FaultSet.none(), alphabet)
        kwargs = dict(sequences=100, ops=60, seed=70200)
        outcome = _outcome(StoreHarness, *args, **kwargs)
        assert outcome == _outcome(FullSweepStoreHarness, *args, **kwargs)
        assert outcome == (None, None)

    @pytest.mark.parametrize("fault", list(PBT_PLAN), ids=lambda f: f.name)
    def test_fault_matrix_plans(self, fault):
        alphabet, seed, bias = PBT_PLAN[fault]
        args = (FaultSet.only(fault), alphabet)
        kwargs = dict(sequences=8, ops=80, seed=seed, bias=bias)
        assert _outcome(StoreHarness, *args, **kwargs) == _outcome(
            FullSweepStoreHarness, *args, **kwargs
        )

    @pytest.mark.parametrize("fault", list(DIRECTED_PLAN), ids=lambda f: f.name)
    def test_directed_plans(self, fault):
        seed, bias, _ = DIRECTED_PLAN[fault]
        for faults in (FaultSet.only(fault), FaultSet.none()):
            sweep, full = (
                str(cls(faults, seed, uuid_magic_bias=bias).run(directed_ops(fault)))
                for cls in (StoreHarness, FullSweepStoreHarness)
            )
            assert sweep == full


class TestSweepFootprint:
    """Which keys each op reads back: its own key after a quiet Get, Put or
    Delete; every model key after anything else."""

    REQUEST = {"Get", "Put", "Delete"}

    @pytest.fixture
    def reads(self, monkeypatch):
        keys = []
        get = ShardStore.get

        def spy(store, key):
            keys.append(key)
            return get(store, key)

        monkeypatch.setattr(ShardStore, "get", spy)
        return keys

    @staticmethod
    def _apply(harness, reads, index, op):
        reads.clear()
        assert harness.apply(index, op) is None
        return set(reads)

    def test_quiet_request_ops_read_their_own_key(self, reads):
        harness = StoreHarness(FaultSet.none(), 0)
        for i in range(4):
            harness.apply(i, Operation("Put", (b"k%d" % i, b"v%d" % i)))
        get, put = Operation("Get", (b"k1",)), Operation("Put", (b"k2", b"w"))
        assert self._apply(harness, reads, 4, get) == {b"k1"}
        assert self._apply(harness, reads, 5, put) == {b"k2"}
        assert self._apply(harness, reads, 6, Operation("Delete", (b"k3",))) == set()

    def test_put_that_flushes_the_memtable_reads_every_key(self, reads):
        harness = StoreHarness(FaultSet.none(), 0)
        threshold = harness.system.config.memtable_flush_threshold
        for i in range(threshold - 1):
            harness.apply(i, Operation("Put", (b"k%d" % i, b"v")))
        runs = harness.store.index.run_count
        last = Operation("Put", (b"last", b"v"))
        read = self._apply(harness, reads, threshold, last)
        assert harness.store.index.run_count == runs + 1
        assert read == set(harness.model.kv.keys())
        assert len(read) == threshold

    def test_every_op_of_seeded_sequences(self, reads):
        """The rule on every op of fault-free sequences that between them
        hold every op name, a Put that resets an extent (store seed 7, op
        57, claims a free extent whose reset was still queued) and a Put
        that flushes the memtable (failure seed 23, op 45)."""
        seen = set()
        for alphabet in ("store", "crash", "failure"):
            generator = ALPHABETS[alphabet]()
            for seed in range(24):
                ops = generator.generate_sequence(random.Random(seed), 60, BiasConfig())
                harness = StoreHarness(FaultSet.none(), seed)
                for index, op in enumerate(ops):
                    resets = harness.system.disk.stats.resets
                    runs = harness.store.index.run_count
                    read = self._apply(harness, reads, index, op)
                    moved = ()
                    if harness.system.disk.stats.resets != resets:
                        moved += ("reset",)
                    if harness.store.index.run_count != runs:
                        moved += ("flush",)
                    if op.name in self.REQUEST and not moved:
                        assert read <= {op.args[0]}, (alphabet, seed, index, op)
                    else:
                        model_keys = set(harness.model.kv.keys())
                        assert model_keys <= read, (alphabet, seed, index, op)
                    seen.add((op.name, moved))
            assert set(generator.names()) <= {name for name, _ in seen}
        assert {("Get", ()), ("Put", ()), ("Delete", ())} <= seen
        assert {("Put", ("reset",)), ("Put", ("flush",))} <= seen
