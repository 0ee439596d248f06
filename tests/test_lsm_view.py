"""The LSM index's resolved view and spliced metadata records, model-based.

``LsmIndex`` answers lookups from one resolved map beside its runs and
builds each metadata record from already-encoded run-list items.  The
reference here is the algorithm those replaced, kept only in this file: a
newest-first scan over ``run.entries`` and ``encode_record`` of the plain
record value.  Seeded random sequences of every operation that touches the
runs -- including recovery with a run chunk corrupted -- must keep the two
equal after every step.
"""

import random

import pytest

from repro.serialization import codec
from repro.serialization.codec import encode_record
from repro.shardstore import DiskGeometry, RebootType, StoreConfig, StoreSystem
from repro.shardstore.chunk import KIND_DATA, KIND_RUN
from repro.shardstore.lsm import LsmIndex

KEYS = [b"key-%02d" % i for i in range(12)]
ABSENT_KEYS = [b"never-put-a", b"never-put-b"]


def scan_get(index: LsmIndex, key: bytes):
    """Reference lookup: memtable, then every run newest first."""
    entry = index._memtable.get(key)
    if entry is not None:
        return list(entry.locators) if entry.locators is not None else None
    for run in reversed(index._runs):
        if key in run.entries:
            locs = run.entries[key]
            return list(locs) if locs is not None else None
    return None


def scan_keys(index: LsmIndex):
    """Reference ``keys()``: newest writer of each key decides."""
    seen = set()
    live = []
    layers = [{k: e.locators for k, e in index._memtable.items()}]
    layers += [run.entries for run in reversed(index._runs)]
    for entries in layers:
        for key, locs in entries.items():
            if key not in seen:
                seen.add(key)
                if locs is not None:
                    live.append(key)
    return sorted(live)


def plain_meta_record(index: LsmIndex) -> bytes:
    """The record ``_write_meta_locked`` is about to append, built from scratch."""
    value = {
        "epoch": index._meta_epoch + 1,
        "next_run_id": index._next_run_id,
        "runs": [[run.run_id, run.locator.to_value()] for run in index._runs],
    }
    return encode_record(value, index.config.geometry.page_size)


class Driver:
    """One store under a seeded op sequence, checked after every step."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.system = StoreSystem(
            StoreConfig(
                geometry=DiskGeometry(num_extents=28, extent_size=16384, page_size=128),
                memtable_flush_threshold=6,
                seed=seed,
            )
        )
        self.meta_records = 0
        self._watch_meta_records()

    @property
    def store(self):
        return self.system.store

    @property
    def index(self) -> LsmIndex:
        return self.system.store.index

    def _watch_meta_records(self) -> None:
        """Compare every metadata record, as queued, with the plain encoding."""
        scheduler = self.store.scheduler
        append = scheduler.append

        def checked_append(extent, data, dep, label="", **kwargs):
            if label == "lsm-metadata":
                assert bytes(data) == plain_meta_record(self.index)
                self.meta_records += 1
            return append(extent, data, dep, label=label, **kwargs)

        scheduler.append = checked_append

    def check(self) -> None:
        index = self.index
        for key in KEYS + ABSENT_KEYS:
            assert index.get(key) == scan_get(index, key), key
        assert index.keys() == scan_keys(index)
        for run in index._runs:
            assert index.is_run_live(run.locator)

    # -- the ops --------------------------------------------------------

    def put(self) -> None:
        key = self.rng.choice(KEYS)
        value = self.rng.randbytes(self.rng.randrange(1, 300))
        locators, data_dep = self.store.chunk_store.put_shard(key, value)
        self.index.put(key, locators, data_dep)

    def delete(self) -> None:
        self.index.delete(self.rng.choice(KEYS))

    def flush(self) -> None:
        self.index.flush()

    def compact(self) -> None:
        self.store.compact()

    def relocate_run(self) -> None:
        runs = self.index._runs
        if not runs:
            return
        run = self.rng.choice(runs)
        old = run.locator
        chunk = self.store.chunk_store.get_chunk(old)
        new, dep = self.store.chunk_store.put_chunk(KIND_RUN, chunk.key, chunk.payload)
        self.index.relocate_run(old, new, dep)
        assert not self.index.is_run_live(old)

    def replace_data_locator(self) -> None:
        key = self.rng.choice(KEYS)
        locators = self.index.get(key)
        if locators is None:
            return
        old = self.rng.choice(locators)
        chunk = self.store.chunk_store.get_chunk(old)
        new, dep = self.store.chunk_store.put_chunk(KIND_DATA, key, chunk.payload)
        assert self.index.replace_data_locator(key, old, new, dep) is not None
        # ``old`` is no longer referenced: a second attempt is a no-op.
        assert self.index.replace_data_locator(key, old, new, dep) is None

    def recover(self) -> None:
        flush = self.rng.random() < 0.5
        self.system.dirty_reboot(
            RebootType(flush_index=flush, flush_superblock=flush)
        )
        self._watch_meta_records()

    def recover_with_a_corrupt_run(self) -> None:
        self.store.flush()
        self.store.drain()
        runs = self.index._runs
        if not runs:
            return
        victim = self.rng.choice(runs)
        self.system.disk.corrupt(
            victim.locator.extent, victim.locator.offset + victim.locator.length // 2
        )
        self.system.dirty_reboot()
        self._watch_meta_records()
        # (An earlier victim stays listed until a metadata write drops it.)
        assert victim.run_id in self.store.lost_runs
        assert victim.run_id not in [run.run_id for run in self.index._runs]

    OPS = (
        (put, 40),
        (delete, 12),
        (flush, 10),
        (compact, 6),
        (relocate_run, 10),
        (replace_data_locator, 10),
        (recover, 4),
        (recover_with_a_corrupt_run, 2),
    )

    def step(self):
        ops, weights = zip(*self.OPS)
        op = self.rng.choices(ops, weights)[0]
        op(self)
        return op.__name__


@pytest.mark.parametrize("seed", range(12))
def test_view_and_meta_records_match_the_scanning_reference(seed):
    driver = Driver(seed)
    done = set()
    for _ in range(250):
        done.add(driver.step())
        driver.check()
    assert driver.meta_records > 0
    assert {"compact", "relocate_run", "replace_data_locator", "recover"} <= done


def test_recovery_with_a_corrupt_run_resolves_the_surviving_runs():
    driver = Driver(seed=99)
    for _ in range(40):
        driver.put()
        driver.delete()
    driver.recover_with_a_corrupt_run()
    driver.check()
    assert driver.store.lost_runs


class _CountingDict(dict):
    """A dict that counts membership tests and lookups."""

    probes = 0

    def __contains__(self, key):
        _CountingDict.probes += 1
        return dict.__contains__(self, key)

    def __getitem__(self, key):
        _CountingDict.probes += 1
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        _CountingDict.probes += 1
        return dict.get(self, key, default)


def _index_with_runs(run_count: int) -> LsmIndex:
    system = StoreSystem(
        StoreConfig(
            geometry=DiskGeometry(num_extents=16, extent_size=65536, page_size=512),
            memtable_flush_threshold=1000,
        )
    )
    store = system.store
    for i in range(run_count):
        key = b"oldest" if i == 0 else b"key-%04d" % i
        locators, data_dep = store.chunk_store.put_shard(key, b"v")
        store.index.put(key, locators, data_dep)
        store.index.flush()
        store.drain()
    assert store.index.run_count == run_count
    return store.index


def _probes_per_get(index: LsmIndex) -> int:
    index._memtable = _CountingDict(index._memtable)
    index._view = _CountingDict(index._view)
    for run in index._runs:
        run.entries = _CountingDict(run.entries)
    _CountingDict.probes = 0
    assert index.get(b"oldest") is not None  # lives in the oldest run
    assert index.get(b"never-put") is None
    return _CountingDict.probes


def _encoder_calls_per_meta_write(index: LsmIndex, monkeypatch) -> int:
    """Recursive encoder invocations for one flush's run chunk + record."""
    calls = 0
    encode_into = codec._encode_into

    def counted(out, value):
        nonlocal calls
        calls += 1
        encode_into(out, value)

    locators, data_dep = index.chunk_store.put_shard(b"one-more", b"v")
    index.put(b"one-more", locators, data_dep)
    with monkeypatch.context() as patch:
        patch.setattr(codec, "_encode_into", counted)
        index.flush()
    return calls


def test_get_probes_and_meta_write_encoding_do_not_grow_with_run_count(monkeypatch):
    few, many = _index_with_runs(2), _index_with_runs(300)
    calls_few = _encoder_calls_per_meta_write(few, monkeypatch)
    calls_many = _encoder_calls_per_meta_write(many, monkeypatch)
    assert calls_few == calls_many
    probes_few, probes_many = _probes_per_get(few), _probes_per_get(many)
    assert probes_few == probes_many == 4  # memtable + view, hit and miss
