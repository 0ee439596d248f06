"""Recovery edge cases: empty disks, torn logs, stale pointers, sealing."""

import pytest

from repro.campaign.injection import run_shard as run_injection_shard
from repro.campaign.spec import KIND_INJECTION, ShardSpec
from repro.core import Operation, StoreHarness
from repro.serialization.codec import encode_record
from repro.shardstore import (
    METADATA_EXTENTS,
    SUPERBLOCK_EXTENTS,
    DiskGeometry,
    FailureMode,
    FaultSet,
    IoError,
    NotFoundError,
    RebootType,
    ShardStore,
    StoreConfig,
    StoreSystem,
)


def _system(**kwargs):
    return StoreSystem(
        StoreConfig(
            geometry=DiskGeometry(num_extents=12, extent_size=2048, page_size=128),
            **kwargs,
        )
    )


class TestColdStarts:
    def test_recovery_of_empty_disk(self):
        system = _system()
        store = system.dirty_reboot(RebootType(pump=0))
        assert store.keys() == []
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"

    def test_recovery_with_only_superblock(self):
        system = _system()
        system.store.flush_superblock()
        system.store.drain()
        store = system.dirty_reboot(RebootType(pump=None))
        assert store.keys() == []

    def test_double_dirty_reboot(self):
        system = _system()
        system.store.put(b"k", b"v")
        system.dirty_reboot(RebootType(pump=0))
        store = system.dirty_reboot(RebootType(pump=0))
        with pytest.raises(NotFoundError):
            store.get(b"k")


class TestLogSealing:
    def test_torn_superblock_record_is_sealed(self):
        """A torn multi-page record must not strand later records."""
        system = _system()
        store = system.store
        store.put(b"a", b"1" * 100)
        store.flush_superblock()
        # Crash with only part of the pending records applied repeatedly;
        # every subsequent boot must still converge on consistent state.
        for pump in (1, 2, 3):
            store = system.dirty_reboot(RebootType(pump=pump))
            store.put(b"a", bytes([pump]) * 50)
            store.flush_index()
            store.flush_superblock()
        store = system.clean_reboot()
        assert store.get(b"a") == bytes([3]) * 50

    def test_seal_truncates_garbage_tail(self):
        system = _system()
        store = system.store
        store.flush_superblock()
        store.drain()
        # Write garbage directly after the valid records (simulating the
        # durable prefix of a torn multi-page record).
        extent = SUPERBLOCK_EXTENTS[0]
        hard = system.disk.write_pointer(extent)
        system.disk.write(extent, hard, b"\xde\xad" * 64)
        store = system.dirty_reboot(RebootType(pump=0))
        # The seal removed the garbage; new records append contiguously
        # and remain recoverable.
        store.flush_superblock()
        store.drain()
        store2 = system.dirty_reboot(RebootType(pump=0))
        assert store2.superblock.current_epoch() >= 1

    def test_valid_record_stranded_behind_a_seal_is_not_adopted(self):
        """Damage in the middle of a log strands the valid, higher-epoch
        records after it: the seal cuts them off, recovery resumes from the
        newest record before the damage."""
        system = _system()
        store = system.store
        extent = SUPERBLOCK_EXTENTS[0]
        ends = []
        for _ in range(3):
            store.flush_superblock()
            store.drain()
            ends.append(system.disk.write_pointer(extent))
        system.disk.corrupt(extent, ends[0] + 20)  # inside record 2's payload
        store = system.dirty_reboot(RebootType(pump=0))
        assert store.superblock.current_epoch() == 1
        assert system.disk.write_pointer(extent) == ends[0]
        store.flush_superblock()
        store.drain()
        assert system.recover_again().superblock.current_epoch() == 2

    def test_valid_frame_with_undecodable_payload_is_skipped_not_sealed(self):
        """The one deliberate edge of frame-only sealing: a frame whose CRC
        holds but whose payload is no value encoding does not end the log;
        recovery skips it as "not a state".  No writer produces one."""
        import struct
        import zlib

        system = _system()
        system.store.flush_superblock()
        system.store.drain()
        extent = SUPERBLOCK_EXTENTS[0]
        payload = b"\xff no such tag"
        frame = struct.pack("<4sII", b"SSRC", len(payload), zlib.crc32(payload))
        start = system.disk.write_pointer(extent)
        system.disk.write(extent, start, (frame + payload).ljust(128, b"\0"))
        store = system.dirty_reboot(RebootType(pump=0))
        assert store.superblock.current_epoch() == 1
        assert system.disk.write_pointer(extent) == start + 128  # kept
        store.flush_superblock()
        store.drain()
        assert system.recover_again().superblock.current_epoch() == 2


class TestRecoveryReads:
    def _reads_by_extent(self, system, monkeypatch):
        """Crash ``system`` and recover it; the extents its recovery read,
        split at the "seal" hook into (before, after)."""
        before, after = [], []
        bucket = [before]
        real_read = system.disk.read

        def spy(extent, offset, length):
            bucket[0].append(extent)
            return real_read(extent, offset, length)

        def hook(step):
            if step == "seal":
                bucket[0] = after

        system.store.scheduler.drop_pending()  # the crash, before the spy
        monkeypatch.setattr(system.disk, "read", spy)
        system.recover_again(recovery_hook=hook)
        return before, after

    def test_each_log_extent_is_read_exactly_once(self, monkeypatch):
        system = _system(memtable_flush_threshold=1)
        store = system.store
        for i in range(40):  # enough metadata records to rotate the log
            store.put(b"k%d" % (i % 4), bytes([i]) * 40)
        store.flush()
        store.drain()
        assert store.index.meta_switched
        logs = _written_logs(system)
        assert len(logs) >= 3
        before, after = self._reads_by_extent(system, monkeypatch)
        # Constructing the scheduler reads nothing (its shadow is a
        # pending-only tail, not a mirror of the medium) ...
        assert before == []
        # ... and recovery proper reads each log extent once, to seal it;
        # superblock and index recovery decode from that read.
        assert sorted(e for e in after if e in logs) == logs

    def test_sealing_a_torn_log_costs_no_further_read(self, monkeypatch):
        system = _system()
        store = system.store
        store.flush_superblock()
        store.drain()
        extent = SUPERBLOCK_EXTENTS[0]
        _tear_log(system, extent)
        torn = system.disk.write_pointer(extent)
        before, after = self._reads_by_extent(system, monkeypatch)
        # The seal read finds the tear; adopting the truncated pointer moves
        # the medium's pointer and re-reads nothing.
        assert before == [] and after.count(extent) == 1
        assert system.disk.write_pointer(extent) == torn - 128

    def test_read_fault_in_the_seal_scan_is_retried(self, monkeypatch):
        """The failure alphabet's ``FailDiskOnce`` on a log extent: the
        fault reaches recovery's own read (the seal scan), that attempt
        dies, and the reboot succeeds on the retry."""
        harness = StoreHarness(FaultSet.none(), 0)
        extent = METADATA_EXTENTS[0]
        failure = harness.run(
            [
                Operation("Put", (b"k", b"v" * 200)),
                Operation("FlushIndex"),
                Operation("FlushSuperblock"),
                Operation("PumpIo", (23,)),
            ]
        )
        assert failure is None
        disk = harness.system.disk
        assert disk.write_pointer(extent) and harness.store.pending_io_count == 0
        before = harness.store
        attempts = []
        real_read = disk.read

        def spy(target, offset, length):
            if target == extent:
                attempts.append(disk.has_armed_fault(extent))
            return real_read(target, offset, length)

        monkeypatch.setattr(disk, "read", spy)
        failure = harness.run(
            [Operation("FailDiskOnce", (extent,)), Operation("Reboot")]
        )
        assert failure is None
        assert attempts == [True, False]  # the seal scan failed, then re-ran
        assert disk.stats.injected_failures == 1
        assert harness.store is not before  # the reboot did recover
        assert harness.store.get(b"k") == b"v" * 200


class TestRecoveryIsACrashPoint:
    """A recovery attempt that dies on a transient IO error has already
    moved disk pointers; it is re-run from the medium as left instead of
    leaving the pre-reboot store bound to a medium it no longer matches."""

    def _flushed(self):
        system = _system()
        system.store.put(b"k", b"v" * 300)
        system.store.flush()
        system.store.drain()
        return system

    def test_transient_read_faults_on_every_log_extent_are_retried(self):
        system = self._flushed()
        before = system.store
        logs = _written_logs(system)
        for extent in logs:
            system.disk.arm_fault(extent, writes=False)
        store = system.dirty_reboot(RebootType(pump=0))
        assert store is not before and store is system.store
        assert system.disk.stats.injected_failures == len(logs)
        assert store.get(b"k") == b"v" * 300

    def test_a_permanent_fault_still_fails_the_reboot(self):
        system = self._flushed()
        before = system.store
        extent = SUPERBLOCK_EXTENTS[0]
        system.disk.arm_fault(extent, FailureMode.PERMANENT, writes=False)
        with pytest.raises(IoError) as raised:
            system.dirty_reboot(RebootType(pump=0))
        assert not raised.value.transient
        assert system.disk.stats.injected_failures == 1  # no second attempt
        assert system.store is before
        system.disk.clear_faults()
        assert system.recover_again().get(b"k") == b"v" * 300

    def test_a_recovery_hook_gets_exactly_one_attempt(self):
        system = self._flushed()
        system.disk.arm_fault(SUPERBLOCK_EXTENTS[0], writes=False)
        steps = []
        with pytest.raises(IoError):
            system.dirty_reboot(RebootType(pump=0), recovery_hook=steps.append)
        assert steps == ["seal"]
        assert system.recover_again().get(b"k") == b"v" * 300

    def test_failure_alphabet_seed_50299_minimised(self):
        """Fault-free failure alphabet, seed 50299, shrunk by the section
        4.3 minimiser.  The one-shot fault armed on extent 4 survives the
        put and fires inside the second reboot's index recovery, after
        pointer adoption moved the medium; without the retry the harness
        kept the pre-reboot store and the last reboot ended ``invariant
        get(b'\\x00') failed: bad chunk magic``."""
        key = b"\x00"
        ops = [Operation("Put", (key, bytes(n))) for n in (434, 538, 256, 384)]
        ops.append(Operation("FlushIndex"))
        ops += [Operation("Put", (key, bytes(n))) for n in (257, 384, 106, 453)]
        ops += [
            Operation("Reboot"),
            Operation("FailDiskOnce", (4,)),
            Operation("Put", (key, bytes(253))),
            Operation("Reboot"),
            Operation("Put", (key, bytes(126))),
            Operation("PumpIo", (1,)),
            Operation("Reboot"),
        ]
        assert StoreHarness(FaultSet.none(), 50299).run(ops) is None

    def test_injection_sequence_280007_settles(self):
        """Sequence 0 of the ``full@7`` smoke's store/corruption shard: a
        planned read fault fires inside a mid-storm reboot.  Without the
        retry, settlement ended ``non-sequential write to extent 5: offset
        667, write pointer 768`` -- the stale store's soft pointer against
        the pointer recovery had already adopted."""
        result = run_injection_shard(
            ShardSpec.make(
                28,
                KIND_INJECTION,
                280007,
                harness="store",
                profile="corruption",
                sequences=1,
                ops=40,
                trace=False,
            )
        )
        assert result.ok, result.failures
        assert result.section["fired"] == 3


def _written_logs(system):
    return [
        extent
        for extent in (*SUPERBLOCK_EXTENTS, *METADATA_EXTENTS)
        if system.disk.write_pointer(extent)
    ]


def _tear_log(system, extent):
    """Leave the first page of a three-page record after the valid log."""
    torn = encode_record({"epoch": 99, "pad": b"x" * 300}, 128)[:128]
    system.disk.write(extent, system.disk.write_pointer(extent), torn)


class TestPointerRecovery:
    def test_data_beyond_published_pointer_is_discarded(self):
        system = _system()
        store = system.store
        dep = store.put(b"k", b"value" * 30)
        store.flush_index()
        # Drain data but never flush the superblock: the published pointer
        # cannot cover the chunk.
        while store.scheduler.pump_one():
            pass
        assert not dep.is_persistent()
        store.scheduler.drop_pending()
        recovered = ShardStore(
            system.disk, system.tracker, system.config, recover=True
        )
        # The key is allowed to be lost (its dependency never reported
        # persistent); and must not be readable as garbage.
        try:
            value = recovered.get(b"k")
            assert value == b"value" * 30  # fine if index+data both made it
        except NotFoundError:
            pass

    def test_recovered_pointers_are_page_aligned(self):
        system = _system()
        store = system.store
        store.put(b"k", b"x" * 333)
        store.flush_index()
        store.flush_superblock()
        store = system.dirty_reboot(RebootType(pump=None))
        for extent in system.config.data_extents:
            pointer = store.scheduler.soft_pointer(extent)
            assert pointer % system.config.geometry.page_size == 0


class TestCrossGeometry:
    @pytest.mark.parametrize("page_size", [64, 128, 256])
    def test_roundtrip_across_page_sizes(self, page_size):
        system = StoreSystem(
            StoreConfig(
                geometry=DiskGeometry(
                    num_extents=12, extent_size=4096, page_size=page_size
                )
            )
        )
        store = system.store
        values = {b"key%d" % i: bytes([i]) * (page_size + i) for i in range(5)}
        for key, value in values.items():
            store.put(key, value)
        store = system.clean_reboot()
        for key, value in values.items():
            assert store.get(key) == value

    def test_config_rejects_tiny_geometry(self):
        with pytest.raises(ValueError):
            StoreConfig(
                geometry=DiskGeometry(num_extents=4, extent_size=1024, page_size=128)
            )

    def test_config_rejects_oversized_chunks(self):
        with pytest.raises(ValueError):
            StoreConfig(
                geometry=DiskGeometry(
                    num_extents=12, extent_size=1024, page_size=128
                ),
                max_chunk_payload=2048,
            )


class _CrashAt:
    """Recovery hook that raises at one named step (a crash mid-recovery)."""

    def __init__(self, step):
        self.step = step
        self.seen = []

    def __call__(self, step):
        self.seen.append(step)
        if step == self.step:
            raise RuntimeError(f"injected crash during recovery at {step!r}")


class TestReentrantRecovery:
    """Crash at every recovery step boundary; recovering again must
    converge -- recovery itself is just another crash point."""

    def _populated(self):
        system = _system()
        store = system.store
        for i in range(8):
            store.put(b"k%d" % i, b"v%d" % i * 5)
        store.delete(b"k3")
        store.flush()
        store.drain()
        store.put(b"lost", b"x")  # pending: the crash will drop it
        return system

    def _assert_recovered(self, store):
        for i in range(8):
            if i == 3:
                continue
            assert store.get(b"k%d" % i) == b"v%d" % i * 5
        with pytest.raises(NotFoundError):
            store.get(b"k3")
        assert store.scrub().clean
        store.put(b"fresh", b"alive")
        store.drain()
        assert store.get(b"fresh") == b"alive"

    def test_hook_sees_every_step_in_order(self):
        system = self._populated()
        seen = []
        system.dirty_reboot(RebootType(pump=0), recovery_hook=seen.append)
        assert seen == list(ShardStore.RECOVERY_STEPS)

    @pytest.mark.parametrize("step", ShardStore.RECOVERY_STEPS)
    def test_crash_at_step_then_recover(self, step):
        system = self._populated()
        with pytest.raises(RuntimeError):
            system.dirty_reboot(RebootType(pump=0), recovery_hook=_CrashAt(step))
        self._assert_recovered(system.recover_again())

    @staticmethod
    def _recovered_state(system):
        store = system.store
        extents = range(system.config.geometry.num_extents)
        return (
            {key: store.get(key) for key in store.keys()},
            (store.superblock.current_epoch(), store.superblock._slot),
            (store.index._meta_epoch, store.index._meta_slot),
            [store.scheduler.soft_pointer(extent) for extent in extents],
            system.disk.snapshot(),
        )

    @pytest.mark.parametrize("damage_between", [False, True])
    @pytest.mark.parametrize("step", ShardStore.RECOVERY_STEPS)
    def test_interrupted_recovery_converges_to_the_uninterrupted_result(
        self, step, damage_between
    ):
        """Same keys, epochs, slots, pointers and medium as a recovery that
        ran through -- also when the log changes between the aborted attempt
        and the next, so nothing the aborted attempt scanned is reused."""

        log = SUPERBLOCK_EXTENTS[0]

        def torn_system():
            """A populated system whose superblock log ends in a torn
            record; also the offset and epoch of its newest valid one."""
            system = self._populated()
            system.store.flush_superblock()
            system.store.drain()
            newest = system.disk.write_pointer(log)
            system.store.flush_superblock()
            system.store.drain()
            _tear_log(system, log)
            return system, newest, system.store.superblock.current_epoch()

        straight, newest, epoch = torn_system()
        if damage_between:
            straight.disk.corrupt(log, newest + 20)
        straight.dirty_reboot(RebootType(pump=0))

        system, _, _ = torn_system()
        with pytest.raises(RuntimeError):
            system.dirty_reboot(RebootType(pump=0), recovery_hook=_CrashAt(step))
        if damage_between:
            system.disk.corrupt(log, newest + 20)
        system.recover_again()
        assert self._recovered_state(system) == self._recovered_state(straight)
        assert system.store.superblock.current_epoch() == epoch - damage_between

    def test_crash_at_every_step_successively(self):
        """One interrupted recovery per step, back to back, then converge."""
        system = self._populated()
        with pytest.raises(RuntimeError):
            system.dirty_reboot(
                RebootType(pump=0), recovery_hook=_CrashAt("seal")
            )
        for step in ShardStore.RECOVERY_STEPS[1:]:
            with pytest.raises(RuntimeError):
                system.recover_again(recovery_hook=_CrashAt(step))
        self._assert_recovered(system.recover_again())

    def test_repeated_recovery_is_idempotent(self):
        system = self._populated()
        first = system.dirty_reboot(RebootType(pump=0))
        contents = {key: first.get(key) for key in first.keys()}
        second = system.recover_again()
        assert {key: second.get(key) for key in second.keys()} == contents
        assert second.scrub().clean

    def test_crash_during_clean_reboot_recovery(self):
        system = self._populated()
        system.store.drain()
        with pytest.raises(RuntimeError):
            system.clean_reboot(recovery_hook=_CrashAt("index"))
        store = system.recover_again()
        self._assert_recovered(store)
