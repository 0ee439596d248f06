"""Tests for the conformance engine itself (runner, relaxation, replay)."""


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
from repro.core.alphabet import Operation
from repro.shardstore import Fault, FaultSet


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
