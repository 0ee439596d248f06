"""Unit tests for the reference models (the specifications, section 3.2)."""

import pytest

from repro.models import (
    CrashAwareModel,
    ReferenceChunkStore,
    ReferenceIndex,
    ReferenceKvStore,
)
from repro.shardstore import Fault, FaultSet, InvalidRequestError, NotFoundError
from repro.shardstore.chunk import Locator
from repro.shardstore.dependency import Dependency, DurabilityTracker


class TestReferenceKvStore:
    def test_mirrors_api_semantics(self):
        model = ReferenceKvStore()
        model.put(b"k", b"v")
        assert model.get(b"k") == b"v"
        assert model.contains(b"k")
        model.delete(b"k")
        with pytest.raises(NotFoundError):
            model.get(b"k")

    def test_rejects_invalid_keys_like_impl(self):
        model = ReferenceKvStore()
        with pytest.raises(InvalidRequestError):
            model.put(b"", b"v")
        with pytest.raises(InvalidRequestError):
            model.get(b"x" * 2000)

    def test_background_ops_are_noops(self):
        model = ReferenceKvStore()
        model.put(b"k", b"v")
        before = model.mapping()
        model.flush_index()
        model.flush_superblock()
        model.compact()
        model.reclaim(4)
        model.clean_reboot()
        assert model.mapping() == before

    def test_clone_is_independent(self):
        model = ReferenceKvStore()
        model.put(b"k", b"v")
        clone = model.clone()
        clone.put(b"k", b"changed")
        assert model.get(b"k") == b"v"

    def test_iteration_is_sorted(self):
        model = ReferenceKvStore()
        for key in (b"c", b"a", b"b"):
            model.put(key, b"v")
        assert list(model) == [b"a", b"b", b"c"]
        assert len(model) == 3


class TestReferenceIndex:
    def test_mapping_semantics(self):
        index = ReferenceIndex()
        locs = [Locator(4, 0, 10)]
        index.put(b"k", locs)
        assert index.get(b"k") == locs
        index.delete(b"k")
        assert index.get(b"k") is None

    def test_replace_data_locator(self):
        index = ReferenceIndex()
        old, new = Locator(4, 0, 10), Locator(5, 0, 10)
        index.put(b"k", [old])
        assert index.replace_data_locator(b"k", old, new)
        assert index.get(b"k") == [new]
        assert not index.replace_data_locator(b"k", old, new)

    def test_background_noops(self):
        index = ReferenceIndex()
        index.put(b"k", [Locator(4, 0, 10)])
        index.flush()
        index.compact()
        assert index.get(b"k") == [Locator(4, 0, 10)]

    def test_returns_copies(self):
        index = ReferenceIndex()
        locs = [Locator(4, 0, 10)]
        index.put(b"k", locs)
        index.get(b"k").append(Locator(9, 9, 9))
        assert index.get(b"k") == locs


class TestReferenceChunkStore:
    def test_put_get_delete(self):
        model = ReferenceChunkStore()
        locator = model.put(b"data")
        assert model.get(locator) == b"data"
        model.delete(locator)
        with pytest.raises(NotFoundError):
            model.get(locator)

    def test_locators_unique_without_fault(self):
        model = ReferenceChunkStore()
        locators = []
        for i in range(10):
            locators.append(model.put(bytes([i])))
            if i % 3 == 0 and locators:
                model.delete(locators.pop(0))
        assert model.locators_unique()

    def test_fault15_reuses_locators(self):
        model = ReferenceChunkStore(FaultSet.only(Fault.MODEL_REUSES_LOCATORS))
        first = model.put(b"one")
        model.delete(first)
        second = model.put(b"two")
        assert int(first) == int(second), "the model bug: locator reuse"
        assert not model.locators_unique()


def _tracker_with(durable: bool):
    tracker = DurabilityTracker()
    rid = tracker.allocate()
    if durable:
        tracker.mark_durable(rid)
    return tracker, Dependency.on_records(tracker, [rid])


class TestCrashAwareModel:
    def test_persistent_put_must_survive(self):
        tracker, dep = _tracker_with(durable=True)
        model = CrashAwareModel()
        model.record_put(b"k", b"v", dep)
        allowed = model.allowed_after_crash(b"k")
        assert allowed.permits(b"v")
        assert not allowed.permits(None)
        assert not allowed.permits(b"other")

    def test_unpersisted_put_may_be_lost(self):
        tracker, dep = _tracker_with(durable=False)
        model = CrashAwareModel()
        model.record_put(b"k", b"v", dep)
        allowed = model.allowed_after_crash(b"k")
        assert allowed.permits(b"v")  # may have partially persisted
        assert allowed.permits(None)  # or be lost entirely

    def test_superseded_by_later_persisted_delete(self):
        tracker = DurabilityTracker()
        rid1, rid2 = tracker.allocate(), tracker.allocate()
        tracker.mark_durable(rid1)
        tracker.mark_durable(rid2)
        model = CrashAwareModel()
        model.record_put(b"k", b"v", Dependency.on_records(tracker, [rid1]))
        model.record_delete(b"k", Dependency.on_records(tracker, [rid2]))
        allowed = model.allowed_after_crash(b"k")
        assert allowed.permits(None)
        assert not allowed.permits(b"v"), "readable v would resurrect data"

    def test_later_unpersisted_ops_widen_allowed_set(self):
        tracker = DurabilityTracker()
        rid = tracker.allocate()
        tracker.mark_durable(rid)
        model = CrashAwareModel()
        model.record_put(b"k", b"old", Dependency.on_records(tracker, [rid]))
        pending = Dependency.on_records(tracker, [tracker.allocate()])
        model.record_put(b"k", b"new", pending)
        allowed = model.allowed_after_crash(b"k")
        assert allowed.permits(b"old")
        assert allowed.permits(b"new")
        assert not allowed.permits(None)

    def test_forward_progress_listing(self):
        tracker, durable_dep = _tracker_with(durable=True)
        pending = Dependency.on_records(tracker, [tracker.allocate()])
        model = CrashAwareModel()
        model.record_put(b"a", b"1", durable_dep)
        model.record_put(b"b", b"2", pending)
        stuck = model.unpersisted_ops()
        assert [op.key for op in stuck] == [b"b"]

    def test_fault9_forces_stale_persistence(self):
        tracker, pending = _tracker_with(durable=False)
        model = CrashAwareModel(FaultSet.only(Fault.MODEL_STALE_AFTER_CRASH_RECLAIM))
        model.record_put(b"k", b"v", pending)
        model.on_crash({b"k"})
        allowed = model.allowed_after_crash(b"k")
        assert not allowed.permits(None), (
            "the model bug demands data that was legally lost"
        )

    def test_correct_model_ignores_on_crash(self):
        tracker, pending = _tracker_with(durable=False)
        model = CrashAwareModel()
        model.record_put(b"k", b"v", pending)
        model.on_crash({b"k"})
        assert model.allowed_after_crash(b"k").permits(None)

    def test_tracked_keys(self):
        tracker, dep = _tracker_with(durable=True)
        model = CrashAwareModel()
        model.record_put(b"b", b"1", dep)
        model.record_delete(b"a", dep)
        assert model.tracked_keys() == [b"a", b"b"]
        assert model.op_count == 2
