"""Differential test: lazy log recovery against an eager reference scan.

Recovery walks record *frames* to seal a log extent and decodes payloads
newest-first, stopping at the first that is a state
(:mod:`repro.shardstore.recordlog`).  The reference below is the scan it
replaced: decode every record in full, stop at the first that fails, keep
the highest epoch seen.  The two agree as long as epochs ascend with offset
inside one extent, so the logs here are built by a writer that follows the
store's protocol -- ``epoch + 1`` per record, rotation resets the other slot
first, recovery seals both slots and resumes on the best record's -- and
are damaged between recoveries the way a crash or a bad medium would: torn
multi-page tails, zeroed pages, flipped bytes (which can leave a valid,
higher-epoch record stranded behind the seal).
"""

import pytest

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.serialization.codec import decode_record, encode_record
from repro.shardstore import (
    METADATA_EXTENTS,
    SUPERBLOCK_EXTENTS,
    DiskGeometry,
    ShardStore,
    StoreConfig,
    StoreSystem,
)
from repro.shardstore.errors import CorruptionError
from repro.shardstore.lsm import LsmIndex
from repro.shardstore.recordlog import scan_log
from repro.shardstore.superblock import Superblock, SuperblockState

PAGE = 128
#: Eight pages per log extent, so a few records force a rotation.
EXTENT_SIZE = 1024


def _superblock_value(epoch, pad):
    return {"epoch": epoch, "pointers": {}, "ownership": {}, "pad": pad}


def _superblock_epoch(value):
    state = SuperblockState.from_value(value)
    return None if state is None else state.epoch


def _metadata_value(epoch, pad):
    return {"epoch": epoch, "next_run_id": 3 * epoch, "runs": [], "pad": pad}


def _metadata_epoch(value):
    epoch = value.get("epoch") if isinstance(value, dict) else None
    return epoch if isinstance(epoch, int) else None


KINDS = {
    "superblock": (SUPERBLOCK_EXTENTS, _superblock_value, _superblock_epoch),
    "metadata": (METADATA_EXTENTS, _metadata_value, _metadata_epoch),
}


def _eager_scan(data):
    """The replaced scan: ``[(offset, value)]`` of the records that decode
    in full, in order, and the offset where the first one that does not
    ends the log."""
    out = []
    offset = 0
    while offset + 12 <= len(data):
        try:
            value, consumed = decode_record(data, offset)
        except CorruptionError:
            break
        out.append((offset, value))
        offset += -(-consumed // PAGE) * PAGE
    return out, offset


def _eager_recover(disk, extents, epoch_of):
    """Sealed end of each slot, and (epoch, value, slot) of the highest-epoch
    state in the sealed logs (first seen wins a tie); None when there is none."""
    ends = []
    best = None
    for slot, extent in enumerate(extents):
        hard = disk.write_pointer(extent)
        records, end = _eager_scan(disk.read(extent, 0, hard) if hard else b"")
        ends.append(end)
        for _, value in records:
            epoch = epoch_of(value)
            if epoch is not None and (best is None or epoch > best[0]):
                best = (epoch, value, slot)
    return ends, best


class _LogWriter:
    """Appends records to a two-slot log the way Superblock / LsmIndex do."""

    def __init__(self, disk, extents, make_value):
        self.disk = disk
        self.extents = extents
        self.make_value = make_value
        self.epoch = 0
        self.slot = 0

    def append(self, value, keep_pages=None):
        """Append ``value`` as one record; with ``keep_pages`` only that
        many of its pages reach the medium (a torn append)."""
        record = encode_record(value, PAGE)
        extent = self.extents[self.slot]
        if self.disk.free_bytes(extent) < len(record):
            self.slot = 1 - self.slot
            extent = self.extents[self.slot]
            self.disk.reset(extent)
        if keep_pages is not None:
            record = record[: keep_pages * PAGE]
        if record:
            self.disk.write(extent, self.disk.write_pointer(extent), record)

    def append_state(self, pad_len, keep_pages=None):
        self.epoch += 1
        self.append(self.make_value(self.epoch, b"x" * pad_len), keep_pages)


def _zero_page(disk, extent, page_index):
    pointer = disk.write_pointer(extent)
    if not pointer:
        return
    start = (page_index % (pointer // PAGE)) * PAGE
    snapshot = disk.snapshot()
    data, pointer, resets = snapshot[extent]
    snapshot[extent] = (
        data[:start] + bytes(PAGE) + data[start + PAGE :],
        pointer,
        resets,
    )
    disk.restore(snapshot)


_APPEND = st.tuples(st.just("append"), st.integers(0, 300))

#: One step of a log's history (appends weighted up so logs grow and
#: rotate).  Damage steps are followed by a recovery.
STEPS = st.one_of(
    _APPEND,
    _APPEND,
    _APPEND,
    st.tuples(st.just("junk"), st.integers(0, 200)),
    st.tuples(st.just("torn"), st.integers(120, 400), st.integers(0, 2)),
    st.tuples(st.just("zero"), st.integers(0, 1), st.integers(0, 7)),
    st.tuples(st.just("flip"), st.integers(0, 1), st.integers(0, EXTENT_SIZE - 1)),
    st.tuples(st.just("recover")),
)


def _compare(system, kind):
    """Recover lazily and by the reference; they must agree.  Returns the
    reference's sealed ends and best ``(epoch, value, slot)``."""
    extents, _, epoch_of = KINDS[kind]
    disk, config = system.disk, system.config
    ends, best = _eager_recover(disk, extents, epoch_of)

    scans = {extent: scan_log(disk, extent, PAGE) for extent in extents}
    assert [scans[extent].end for extent in extents] == ends
    scheduler = system.store.scheduler
    for handed in (scans, None):  # with sealing's scans, and reading afresh
        if kind == "superblock":
            state, slot = Superblock.recover_state(scheduler, config, handed)
            adopted = (state.epoch, slot) if state.epoch else None
            if best is not None:
                assert state == SuperblockState.from_value(best[1])
        else:
            index, lost = LsmIndex.recover(
                system.store.chunk_store, scheduler, config, handed
            )
            assert lost == []
            adopted = (
                (index._meta_epoch, index._meta_slot) if index._meta_epoch else None
            )
            if best is not None:
                assert index._next_run_id == best[1]["next_run_id"]
        assert adopted == (best and (best[0], best[2]))
    return ends, best


def _recover(system, kind, writer):
    """Compare, then seal the log and resume the writer as the store would."""
    ends, best = _compare(system, kind)
    for extent, end in zip(KINDS[kind][0], ends):
        system.disk.set_write_pointer(extent, end)
    writer.epoch, writer.slot = (best[0], best[2]) if best else (0, 0)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(grown=st.integers(0, 14), steps=st.lists(STEPS, min_size=1, max_size=40))
def test_lazy_recovery_matches_the_eager_reference(kind, grown, steps):
    system = StoreSystem(
        StoreConfig(
            geometry=DiskGeometry(
                num_extents=6, extent_size=EXTENT_SIZE, page_size=PAGE
            )
        )
    )
    extents, make_value, _ = KINDS[kind]
    disk = system.disk
    writer = _LogWriter(disk, extents, make_value)
    for i in range(grown):  # a log with history: up to three rotations
        writer.append_state(97 * i % 300)
    for position, step in enumerate(steps):
        name = step[0]
        if name == "append":
            writer.append_state(step[1])
            continue
        if name == "junk":  # a well-formed record that is not a state
            writer.append(["not", "a", "state", b"y" * step[1]])
            continue
        if name == "torn":
            writer.append_state(step[1], keep_pages=step[2])
        elif name == "zero":
            _zero_page(disk, extents[step[1]], step[2])
        elif name == "flip":
            disk.corrupt(extents[step[1]], step[2], bit=step[2])
        if position < len(steps) - 1:
            _recover(system, kind, writer)

    # The whole path, on the log as the last step left it: a store
    # recovering from this disk seals the same ends and resumes from the
    # same record.
    ends, best = _compare(system, kind)
    store = ShardStore(disk, system.tracker, system.config, recover=True)
    assert [disk.write_pointer(extent) for extent in extents] == ends
    if kind == "superblock":
        resumed = (store.superblock.current_epoch(), store.superblock._slot)
    else:
        resumed = (store.index._meta_epoch, store.index._meta_slot)
    assert resumed == ((best[0], best[2]) if best else (0, 0))


pytestmark = pytest.mark.slow
