"""Unit tests for the Dependency type and durability tracking."""

import gc
import random

import pytest

from repro.shardstore import DiskGeometry, StoreConfig, StoreSystem
from repro.shardstore.dependency import (
    Dependency,
    DurabilityTracker,
    FutureCell,
    RecordInfo,
    dependency_graph_edges,
)


@pytest.fixture
def tracker() -> DurabilityTracker:
    return DurabilityTracker()


class TestBasics:
    def test_root_is_always_persistent(self, tracker):
        assert Dependency.root(tracker).is_persistent()

    def test_records_gate_persistence(self, tracker):
        rid = tracker.allocate()
        dep = Dependency.on_records(tracker, [rid])
        assert not dep.is_persistent()
        tracker.mark_durable(rid)
        assert dep.is_persistent()

    def test_allocate_is_monotonic(self, tracker):
        ids = [tracker.allocate() for _ in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_durable_count(self, tracker):
        ids = [tracker.allocate() for _ in range(3)]
        tracker.mark_durable(ids[0])
        tracker.mark_durable(ids[2])
        assert tracker.durable_count == 2


class TestConjunction:
    def test_and_requires_both(self, tracker):
        a, b = tracker.allocate(), tracker.allocate()
        dep = Dependency.on_records(tracker, [a]).and_(
            Dependency.on_records(tracker, [b])
        )
        tracker.mark_durable(a)
        assert not dep.is_persistent()
        tracker.mark_durable(b)
        assert dep.is_persistent()

    def test_all_of_many(self, tracker):
        ids = [tracker.allocate() for _ in range(4)]
        dep = Dependency.all_([Dependency.on_records(tracker, [i]) for i in ids])
        for rid in ids[:-1]:
            tracker.mark_durable(rid)
            assert not dep.is_persistent()
        tracker.mark_durable(ids[-1])
        assert dep.is_persistent()

    def test_root_is_the_identity_and_and_is_idempotent(self, tracker):
        """No new object for a conjunction that adds nothing."""
        a = Dependency.on_records(tracker, [tracker.allocate()])
        root = Dependency.root(tracker)
        assert a.and_(root) is a
        assert root.and_(a) is a
        assert a.and_(a) is a
        cell = Dependency.on_future(tracker, FutureCell())
        assert cell.and_(root) is cell and not cell.is_persistent()

    def test_all_of_nothing_rejected(self, tracker):
        with pytest.raises(ValueError):
            Dependency.all_([])

    def test_cross_tracker_combination_rejected(self, tracker):
        other = DurabilityTracker()
        with pytest.raises(ValueError):
            Dependency.root(tracker).and_(Dependency.root(other))


class TestFutures:
    def test_unresolved_future_blocks_persistence(self, tracker):
        cell = FutureCell("pending")
        dep = Dependency.on_future(tracker, cell)
        assert not dep.is_persistent()
        assert dep.unresolved_futures() == [cell]

    def test_resolution_transfers_records(self, tracker):
        rid = tracker.allocate()
        cell = FutureCell()
        dep = Dependency.on_future(tracker, cell)
        cell.resolve(Dependency.on_records(tracker, [rid]))
        assert not dep.is_persistent()
        tracker.mark_durable(rid)
        assert dep.is_persistent()
        assert rid in dep.record_ids()

    def test_double_resolution_is_conjunction(self, tracker):
        a, b = tracker.allocate(), tracker.allocate()
        cell = FutureCell()
        dep = Dependency.on_future(tracker, cell)
        cell.resolve(Dependency.on_records(tracker, [a]))
        cell.resolve(Dependency.on_records(tracker, [b]))
        tracker.mark_durable(a)
        assert not dep.is_persistent(), "second resolution must also hold"
        tracker.mark_durable(b)
        assert dep.is_persistent()

    def test_nested_future_chains(self, tracker):
        rid = tracker.allocate()
        inner = FutureCell("inner")
        outer = FutureCell("outer")
        dep = Dependency.on_future(tracker, outer)
        outer.resolve(Dependency.on_future(tracker, inner))
        assert not dep.is_persistent()
        inner.resolve(Dependency.on_records(tracker, [rid]))
        tracker.mark_durable(rid)
        assert dep.is_persistent()

    def test_duplicate_future_in_and(self, tracker):
        cell = FutureCell()
        a = Dependency.on_future(tracker, cell)
        combined = a.and_(Dependency.on_future(tracker, cell))
        assert len(combined.unresolved_futures()) == 1


def _random_history(seed, steps=120):
    """A tracker and dependencies built through the public API from a seeded
    history: record sets, future cells resolved late, twice or to other
    cells, conjunctions of earlier dependencies, durability marked out of
    order, and snapshots restored (which rewind durability)."""
    rng = random.Random(seed)
    tracker = DurabilityTracker()
    deps = [Dependency.root(tracker)]
    cells = []
    snap = None
    for _ in range(steps):
        step = rng.choice(
            ["records", "cell", "resolve", "and", "and", "durable", "durable"]
            + ["snapshot", "restore", "lost"]
        )
        if step == "records":
            ids = tracker.allocate_range(rng.randrange(1, 4))
            deps.append(Dependency.on_records(tracker, ids))
        elif step == "cell":
            cells.append(FutureCell(f"c{len(cells)}"))
            deps.append(Dependency.on_future(tracker, cells[-1]))
        elif step == "resolve" and cells:
            rng.choice(cells).resolve(rng.choice(deps))
        elif step == "and":
            deps.append(rng.choice(deps).and_(rng.choice(deps)))
        elif step == "durable" and tracker.snapshot()[0]:
            tracker.mark_durable(rng.randrange(tracker.snapshot()[0]))
        elif step == "snapshot":
            snap = tracker.snapshot()
        elif step == "restore" and snap is not None:
            tracker.restore(snap)
        elif step == "lost" and tracker.snapshot()[0]:
            tracker.mark_lost([rng.randrange(tracker.snapshot()[0])])
        yield rng, tracker, deps


def _flat_persistent(tracker, dep, given=frozenset()):
    """The poll as it was before it stopped at the first miss: flatten every
    part, then ask the tracker about each id."""
    if dep.unresolved_futures():
        return False
    return all(tracker.is_durable(r) or r in given for r in dep.record_ids())


class TestOnePassAgainstFold:
    """``all_`` and the poll each walk once; the fold of ``and_`` and the
    flattened poll they replaced are the references."""

    @pytest.mark.parametrize("seed", range(30))
    def test_all_equals_the_fold_of_and(self, seed):
        for rng, tracker, deps in _random_history(seed):
            operands = [rng.choice(deps) for _ in range(rng.randrange(1, 9))]
            folded = operands[0]
            for dep in operands[1:]:
                folded = folded.and_(dep)
            one_pass = Dependency.all_(operands)
            assert one_pass._records == folded._records
            assert one_pass._futures == folded._futures
            assert one_pass.record_ids() == folded.record_ids()

    @pytest.mark.parametrize("seed", range(30))
    def test_poll_matches_the_flattened_poll(self, seed):
        memos = []
        for rng, tracker, deps in _random_history(seed):
            # A memo taken earlier claims "not persistent while it blocks";
            # no later resolution, durability or restore may break that.
            for dep, blocker in memos:
                if dep.held_by(blocker):
                    assert not _flat_persistent(tracker, dep)
            dep = rng.choice(deps)
            given = frozenset(rng.sample(range(tracker.snapshot()[0] + 2), 2))
            for ids in (frozenset(), given):
                blocker = dep.blocker(ids)
                assert (blocker is None) == _flat_persistent(tracker, dep, ids)
                if isinstance(blocker, FutureCell):
                    assert blocker in dep.unresolved_futures()
                elif blocker is not None:
                    assert blocker in dep.record_ids() and blocker not in ids
                    assert not tracker.is_durable(blocker)
            assert dep.is_persistent() == _flat_persistent(tracker, dep)
            assert dep.is_persistent_given(given) == _flat_persistent(
                tracker, dep, given
            )
            blocker = dep.blocker()
            if blocker is not None:
                assert dep.held_by(blocker)
                memos.append((dep, blocker))


class TestSnapshotRestore:
    def test_durability_rewinds(self, tracker):
        rid = tracker.allocate()
        snap = tracker.snapshot()
        tracker.mark_durable(rid)
        dep = Dependency.on_records(tracker, [rid])
        assert dep.is_persistent()
        tracker.restore(snap)
        assert not dep.is_persistent()


class TestGraphEdges:
    def test_edges_follow_prerequisites(self, tracker):
        a = tracker.allocate()
        b = tracker.allocate()
        dep_a = Dependency.on_records(tracker, [a])
        tracker.capture_record_info()
        tracker.record_info[a] = RecordInfo(a, "first", 0, 0, 4, Dependency.root(tracker))
        tracker.record_info[b] = RecordInfo(b, "second", 0, 4, 4, dep_a)
        edges = dependency_graph_edges(tracker, [b])
        assert (a, b) in edges


class TestRecordInfoCapture:
    """``RecordInfo`` is kept only by a tracker that was asked to."""

    def test_default_store_retains_no_record_info(self):
        system = StoreSystem(
            StoreConfig(
                geometry=DiskGeometry(64, 65536, 512), memtable_flush_threshold=64
            )
        )
        store = system.store
        for i in range(5_000):
            store.put(b"key-%03d" % (i % 200), b"v" * 64)
            if (i + 1) % 500 == 0:
                store.flush()
                store.drain()
        assert system.tracker.record_info is None
        gc.collect()
        assert not [o for o in gc.get_objects() if type(o) is RecordInfo]
        with pytest.raises(ValueError):
            dependency_graph_edges(system.tracker, [0])

    def test_capturing_tracker_renders_the_fig2_graph(self):
        """The Fig. 2 scenario's graph: each put needs its chunk pages, the
        shared run chunk (8-10), the metadata record (11) and the superblock
        record (12-15); the metadata record is ordered after all of the
        others, and each run chunk page after its entries' data.

        Re-pinned when the run chunk gained its dependency on the data it
        names: the list gained exactly the run -> data edges, from every
        record the entries' data depends on (the data pages 0-7 and the
        superblock record 12-15 their extent's ownership resolved to) to
        each run page.  The seven edges into the metadata record are the
        list pinned at commit 736a492."""
        system = StoreSystem(StoreConfig(seed=1, superblock_flush_cadence=100))
        system.tracker.capture_record_info()
        store = system.store
        deps = [
            store.put(key, bytes([i]) * 200)
            for i, key in enumerate([b"shard-1", b"shard-2", b"shard-3"])
        ]
        store.flush_index()
        store.flush_superblock()
        shared = [8, 9, 10, 11, 12, 13, 14, 15]
        edges = [(8, 11), (9, 11), (10, 11), (12, 11), (13, 11), (14, 11), (15, 11)]
        edges += [(rid, run) for run in (10, 9, 8) for rid in [*range(8), *shared[4:]]]
        for dep, own in zip(deps, ([0, 1], [2, 3, 4], [5, 6, 7])):
            assert sorted(dep.record_ids()) == own + shared
            assert dependency_graph_edges(system.tracker, own + shared) == edges
        labels = {rid: info.label for rid, info in system.tracker.record_info.items()}
        assert labels[11] == "lsm-metadata"
        assert {labels[rid] for rid in (12, 13, 14, 15)} == {"superblock-record"}
        assert {labels[rid] for rid in range(11)} == {"chunk@4"}
