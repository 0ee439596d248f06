"""Unit tests for the in-memory extent disk."""

import pytest

from repro.shardstore import (
    DiskGeometry,
    ExtentError,
    FailureMode,
    FaultKind,
    InMemoryDisk,
    IoError,
)


@pytest.fixture
def disk() -> InMemoryDisk:
    return InMemoryDisk(DiskGeometry(num_extents=4, extent_size=1024, page_size=128))


class TestGeometry:
    def test_defaults_are_consistent(self):
        geometry = DiskGeometry()
        assert geometry.extent_size % geometry.page_size == 0
        assert geometry.pages_per_extent == geometry.extent_size // geometry.page_size

    def test_rejects_too_few_extents(self):
        with pytest.raises(ValueError):
            DiskGeometry(num_extents=2)

    def test_rejects_unaligned_extent_size(self):
        with pytest.raises(ValueError):
            DiskGeometry(extent_size=1000, page_size=128)

    def test_rejects_nonpositive_page(self):
        with pytest.raises(ValueError):
            DiskGeometry(page_size=0)


class TestAppendOnlyWrites:
    def test_write_advances_pointer(self, disk):
        disk.write(1, 0, b"hello")
        assert disk.write_pointer(1) == 5

    def test_sequential_writes_accumulate(self, disk):
        disk.write(1, 0, b"abc")
        disk.write(1, 3, b"def")
        assert disk.read(1, 0, 6) == b"abcdef"

    def test_nonsequential_write_rejected(self, disk):
        disk.write(1, 0, b"abc")
        with pytest.raises(ExtentError):
            disk.write(1, 10, b"xyz")

    def test_write_at_stale_offset_rejected(self, disk):
        disk.write(1, 0, b"abc")
        with pytest.raises(ExtentError):
            disk.write(1, 0, b"xyz")

    def test_overrun_rejected(self, disk):
        with pytest.raises(ExtentError):
            disk.write(1, 0, b"x" * 2000)

    def test_bad_extent_rejected(self, disk):
        with pytest.raises(ExtentError):
            disk.write(9, 0, b"x")


class TestReads:
    def test_read_beyond_pointer_forbidden(self, disk):
        disk.write(0, 0, b"abc")
        with pytest.raises(ExtentError):
            disk.read(0, 0, 4)

    def test_read_of_unwritten_extent_forbidden(self, disk):
        with pytest.raises(ExtentError):
            disk.read(2, 0, 1)

    def test_negative_bounds_rejected(self, disk):
        with pytest.raises(ExtentError):
            disk.read(0, -1, 1)
        with pytest.raises(ExtentError):
            disk.read(0, 0, -1)

    def test_read_returns_written_bytes(self, disk):
        disk.write(3, 0, bytes(range(100)))
        assert disk.read(3, 10, 20) == bytes(range(10, 30))


class TestReset:
    def test_reset_zeroes_pointer_and_bumps_generation(self, disk):
        disk.write(1, 0, b"data")
        generation = disk.reset_count(1)
        disk.reset(1)
        assert disk.write_pointer(1) == 0
        assert disk.reset_count(1) == generation + 1

    def test_data_unreadable_after_reset(self, disk):
        disk.write(1, 0, b"data")
        disk.reset(1)
        with pytest.raises(ExtentError):
            disk.read(1, 0, 4)

    def test_extent_reusable_after_reset(self, disk):
        disk.write(1, 0, b"old")
        disk.reset(1)
        disk.write(1, 0, b"new")
        assert disk.read(1, 0, 3) == b"new"


class TestSetWritePointer:
    def test_truncation_discards_tail(self, disk):
        disk.write(1, 0, b"abcdef")
        disk.set_write_pointer(1, 3)
        assert disk.read(1, 0, 3) == b"abc"
        # The discarded region reads as zeroes once re-covered.
        disk.set_write_pointer(1, 6)
        assert disk.read(1, 3, 3) == b"\x00\x00\x00"

    def test_pointer_above_hard_reads_zeroes(self, disk):
        disk.set_write_pointer(2, 10)
        assert disk.read(2, 0, 10) == bytes(10)

    def test_out_of_range_rejected(self, disk):
        with pytest.raises(ExtentError):
            disk.set_write_pointer(1, 5000)


class TestFailureInjection:
    def test_once_fault_fires_once(self, disk):
        disk.write(0, 0, b"abc")
        disk.arm_fault(0, FailureMode.ONCE)
        with pytest.raises(IoError) as excinfo:
            disk.read(0, 0, 3)
        assert excinfo.value.transient
        assert disk.read(0, 0, 3) == b"abc"  # disarmed

    def test_permanent_fault_persists(self, disk):
        disk.write(0, 0, b"abc")
        disk.arm_fault(0, FailureMode.PERMANENT)
        for _ in range(3):
            with pytest.raises(IoError) as excinfo:
                disk.read(0, 0, 1)
            assert not excinfo.value.transient

    def test_write_fault(self, disk):
        disk.arm_fault(1, FailureMode.ONCE, reads=False)
        with pytest.raises(IoError):
            disk.write(1, 0, b"x")
        disk.write(1, 0, b"x")  # disarmed

    def test_read_only_fault_spares_writes(self, disk):
        disk.arm_fault(1, FailureMode.ONCE, writes=False)
        disk.write(1, 0, b"x")  # unaffected
        with pytest.raises(IoError):
            disk.read(1, 0, 1)

    def test_clear_faults(self, disk):
        disk.arm_fault(0, FailureMode.PERMANENT)
        disk.arm_fault(1, FailureMode.PERMANENT)
        disk.clear_faults(0)
        assert not disk.has_armed_fault(0)
        assert disk.has_armed_fault(1)
        disk.clear_faults()
        assert not disk.has_armed_fault(1)

    def test_fault_counter(self, disk):
        disk.arm_fault(0, FailureMode.ONCE, reads=False)
        with pytest.raises(IoError):
            disk.write(0, 0, b"x")
        assert disk.stats.injected_failures == 1


class TestArmedFaultSemantics:
    """The fault-plan contract the injection campaign builds on."""

    def test_once_fault_consumed_by_first_matching_io_of_either_kind(
        self, disk
    ):
        disk.write(1, 0, b"abc")
        disk.arm_fault(1, FailureMode.ONCE)
        with pytest.raises(IoError):
            disk.read(1, 0, 1)
        disk.write(1, 3, b"d")  # the read consumed the fault
        assert disk.read(1, 0, 4) == b"abcd"
        assert disk.stats.injected_failures == 1

    def test_delay_lets_matching_ios_through_before_firing(self, disk):
        disk.write(1, 0, b"abc")
        disk.arm_fault(1, FailureMode.ONCE, delay=2)
        assert disk.read(1, 0, 1) == b"a"
        assert disk.read(1, 0, 1) == b"a"
        with pytest.raises(IoError):
            disk.read(1, 0, 1)
        assert disk.read(1, 0, 1) == b"a"  # ONCE disarmed after firing

    def test_torn_write_lands_durable_prefix_then_fails(self, disk):
        disk.arm_fault(
            1, FailureMode.ONCE, kind=FaultKind.TORN_WRITE, reads=False
        )
        with pytest.raises(IoError, match="torn write"):
            disk.write(1, 0, b"abcdef")
        # Half the write landed durably; the pointer sits at the tear.
        assert disk.write_pointer(1) == 3
        assert disk.read(1, 0, 3) == b"abc"
        # The tear consumed the fault: a retry from the torn pointer works.
        disk.write(1, 3, b"def")
        assert disk.read(1, 0, 6) == b"abcdef"

    def test_torn_write_error_is_transient_for_once_mode(self, disk):
        disk.arm_fault(1, FailureMode.ONCE, kind=FaultKind.TORN_WRITE)
        with pytest.raises(IoError) as excinfo:
            disk.write(1, 0, b"abcd")
        assert excinfo.value.transient

    def test_permanent_fault_survives_snapshot_restore(self, disk):
        """Restoring the medium does not heal a dead region.

        ``snapshot``/``restore`` model the durable medium across a crash
        or reboot; armed PERMANENT faults model failed hardware, which a
        reboot does not fix -- only ``clear_faults`` (a repair) does.
        """
        disk.write(1, 0, b"abc")
        disk.arm_fault(1, FailureMode.PERMANENT)
        snap = disk.snapshot()
        disk.restore(snap)
        assert disk.has_armed_fault(1)
        with pytest.raises(IoError) as excinfo:
            disk.read(1, 0, 1)
        assert not excinfo.value.transient
        disk.clear_faults(1)
        assert disk.read(1, 0, 3) == b"abc"

    def test_rearming_an_extent_replaces_the_fault(self, disk):
        disk.write(1, 0, b"abc")
        disk.arm_fault(1, FailureMode.PERMANENT)
        disk.arm_fault(1, FailureMode.ONCE)
        with pytest.raises(IoError):
            disk.read(1, 0, 1)
        assert disk.read(1, 0, 1) == b"a"  # ONCE won: disarmed

    def test_corrupt_flips_exactly_one_bit(self, disk):
        disk.write(1, 0, bytes(16))
        offset = disk.corrupt(1, 5, bit=3)
        assert offset == 5
        data = disk.read(1, 0, 16)
        assert data[5] == 1 << 3
        assert all(b == 0 for i, b in enumerate(data) if i != 5)
        assert disk.stats.injected_corruptions == 1

    def test_corrupt_defaults_to_middle_and_clamps(self, disk):
        disk.write(1, 0, b"\x00" * 10)
        assert disk.corrupt(1) == 5
        assert disk.corrupt(1, 999) == 9  # clamped below the pointer

    def test_corrupt_of_empty_extent_is_a_noop(self, disk):
        assert disk.corrupt(2) is None
        assert disk.stats.injected_corruptions == 0

    def test_corruption_is_silent(self, disk):
        """A flipped bit raises nothing at the disk layer -- only a CRC
        check downstream can notice (which is the point)."""
        disk.write(1, 0, b"payload")
        disk.corrupt(1, 2)
        assert disk.read(1, 0, 7) != b"payload"  # no exception


class TestSnapshotRestore:
    def test_roundtrip(self, disk):
        disk.write(1, 0, b"payload")
        disk.reset(2)
        snap = disk.snapshot()
        disk.write(1, 7, b"more")
        disk.reset(1)
        disk.restore(snap)
        assert disk.write_pointer(1) == 7
        assert disk.read(1, 0, 7) == b"payload"
        assert disk.reset_count(2) == 1

    def test_geometry_mismatch_rejected(self, disk):
        other = InMemoryDisk(DiskGeometry(num_extents=6, extent_size=1024, page_size=128))
        with pytest.raises(ValueError):
            disk.restore(other.snapshot())


class TestLazyExtents:
    """Extents materialise at the write pointer; the zero-padded image is
    what a pre-allocated extent would hold."""

    def _image(self, disk, extent):
        data, _, _ = disk.snapshot()[extent]
        return data.ljust(disk.geometry.extent_size, b"\0")

    def test_a_fresh_disk_materialises_nothing(self, disk):
        assert [len(data) for data, _, _ in disk.snapshot()] == [0, 0, 0, 0]

    def test_writes_grow_the_extent_to_the_write_pointer(self, disk):
        disk.write(1, 0, b"abc")
        disk.write(1, 3, b"defg")
        assert disk.snapshot()[1] == (b"abcdefg", 7, 0)

    def test_pointer_above_hard_zero_extends(self, disk):
        disk.write(1, 0, b"abc")
        disk.set_write_pointer(1, 8)
        assert disk.read(1, 0, 8) == b"abc" + bytes(5)
        disk.write(1, 8, b"z")
        assert self._image(disk, 1)[:10] == b"abc" + bytes(5) + b"z\0"

    def test_tail_discard_below_hard_zeroes_in_place(self, disk):
        disk.write(1, 0, b"abcdef")
        disk.set_write_pointer(1, 2)
        assert disk.snapshot()[1] == (b"ab" + bytes(4), 2, 0)
        disk.write(1, 2, b"Z")
        assert self._image(disk, 1)[:7] == b"abZ" + bytes(4)

    def test_stale_bytes_survive_a_reset(self, disk):
        disk.write(1, 0, b"old-data")
        disk.reset(1)
        disk.write(1, 0, b"new")
        assert disk.snapshot()[1] == (b"new-data", 3, 1)
        # Bug #7's gap exposes what the medium holds, never fresh memory.
        disk.set_write_pointer(1, 10)
        assert disk.read(1, 0, 10) == b"new-data" + bytes(2)

    def test_corrupt_lands_inside_the_materialised_prefix(self, disk):
        disk.write(1, 0, b"\x00" * 9)
        assert disk.corrupt(1, 500) == 8  # clamped below the write pointer
        assert disk.snapshot()[1][0] == bytes(8) + b"\x01"
        disk.set_write_pointer(2, 4)
        assert disk.corrupt(2) == 2
        assert disk.read(2, 0, 4) == b"\0\0\x01\0"

    def test_restore_across_growth(self, disk):
        disk.write(1, 0, b"abc")
        snap = disk.snapshot()
        disk.write(1, 3, b"x" * 500)
        disk.write(2, 0, b"y" * 200)
        disk.restore(snap)
        assert disk.snapshot() == snap
        assert self._image(disk, 2) == bytes(1024)
        disk.write(1, 3, b"d")  # grows again from the restored length
        disk.write(2, 0, b"e")
        assert disk.read(1, 0, 4) == b"abcd" and disk.read(2, 0, 1) == b"e"

    def test_write_up_to_the_last_byte(self, disk):
        disk.write(3, 0, b"q" * 1024)
        assert disk.free_bytes(3) == 0 and len(disk.snapshot()[3][0]) == 1024
        with pytest.raises(ExtentError):
            disk.write(3, 1024, b"!")


class TestStats:
    def test_counters_track_io(self, disk):
        disk.write(0, 0, b"abcd")
        disk.read(0, 0, 2)
        disk.reset(0)
        assert disk.stats.writes == 1
        assert disk.stats.bytes_written == 4
        assert disk.stats.reads == 1
        assert disk.stats.bytes_read == 2
        assert disk.stats.resets == 1
