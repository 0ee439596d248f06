"""The paper's ``Dependency`` type: declarative crash-consistent ordering.

ShardStore specifies soft-updates write orderings *declaratively* (section
2.2): every append takes an input dependency and returns a new one, the IO
scheduler guarantees an append is not issued to disk until its input
dependency has persisted, and clients poll ``is_persistent()`` to learn when
an operation is durable.

A :class:`Dependency` here is a set of *parts*, each either

* a frozen set of IO record ids (writes already handed to the scheduler), or
* a :class:`FutureCell` -- a promise for writes that have not been created
  yet.  Future cells are how batched persistence is expressed: a ``put``
  returns immediately with a dependency containing a future cell that the
  LSM tree resolves at flush time with the run/metadata write records, and
  the superblock resolves pointer-update cells when its periodic flush
  actually writes a record.

``is_persistent()`` consults the :class:`DurabilityTracker`, the single
source of truth for which IO records have reached the durable medium.  The
tracker outlives crashes (durable writes stay durable; pending ones are
dropped and their ids simply never become durable), which is exactly what
lets the crash-consistency checker (section 5) evaluate each operation's
dependency *after* reboot and demand that persisted-before-crash data is
still readable.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union


class RecordInfo:
    """Introspection metadata for one IO record (used by the Fig. 2 bench)."""

    __slots__ = ("record_id", "label", "extent", "offset", "length", "dep", "kind")

    def __init__(
        self,
        record_id: int,
        label: str,
        extent: int,
        offset: int,
        length: int,
        dep: "Dependency",
        kind: str = "write",  # "write" or "reset"
    ) -> None:
        self.record_id = record_id
        self.label = label
        self.extent = extent
        self.offset = offset
        self.length = length
        self.dep = dep
        self.kind = kind


class DurabilityTracker:
    """Tracks which IO record ids have reached the durable medium.

    One tracker exists per simulated system and survives reboots.  The IO
    scheduler allocates record ids from it and marks them durable as
    writebacks complete; dropped (crashed-away) records are never marked
    durable -- the scheduler reports them with :meth:`mark_lost` instead.

    Ids are allocated in order and settle (durable or lost) nearly in
    order, so the durable set is kept as a *low-water mark* -- every id
    below it is settled, durable unless recorded lost -- plus the sparse
    set of durable ids above it.  The sparse set is bounded by the
    writeback reordering window and the lost set by what crashes discarded;
    neither grows with the count of records ever written.  An id that is
    allocated and then neither marked nor reported lost stalls the mark
    (the sparse set then grows as a plain set would), never the answers.
    """

    def __init__(self) -> None:
        self._next_id = 0
        self._low_water = 0
        self._durable_above: Set[int] = set()
        self._lost: Set[int] = set()
        #: One :class:`RecordInfo` per IO record queued after
        #: :meth:`capture_record_info`; None (the default) keeps nothing, so
        #: a long-running store's bookkeeping does not grow with its history.
        self.record_info: Optional[Dict[int, RecordInfo]] = None

    def capture_record_info(self) -> None:
        """Keep a :class:`RecordInfo` (and through it the dependency graph)
        for every record queued from now on; what the Fig. 2 bench renders."""
        if self.record_info is None:
            self.record_info = {}

    def allocate(self) -> int:
        record_id = self._next_id
        self._next_id += 1
        return record_id

    def allocate_range(self, count: int) -> range:
        """Allocate ``count`` consecutive record ids in one bump.

        Group commit allocates one id per page segment of a batched append;
        doing it in a single bump keeps the bookkeeping cost independent of
        the batch size.
        """
        start = self._next_id
        self._next_id += count
        return range(start, start + count)

    def mark_durable(self, record_id: int) -> None:
        self.mark_durable_many((record_id,))

    def mark_durable_many(self, record_ids: Iterable[int]) -> None:
        above, mark = self._durable_above, self._low_water
        for record_id in record_ids:
            if record_id == mark:
                mark += 1  # in order, the common case: no set traffic
            elif record_id > mark:
                above.add(record_id)
        self._low_water = mark
        if above or self._lost:
            self._advance()

    def mark_lost(self, record_ids: Iterable[int]) -> None:
        """Record ids a crash discarded: settled, and never durable."""
        self._lost.update(record_ids)
        self._advance()

    def _advance(self) -> None:
        mark = self._low_water
        above, lost = self._durable_above, self._lost
        while True:
            if mark in above:
                above.remove(mark)
            elif mark not in lost:
                break
            mark += 1
        self._low_water = mark

    def is_durable(self, record_id: int) -> bool:
        return self.all_durable((record_id,))

    def all_durable(self, record_ids: Iterable[int]) -> bool:
        """Whether every id is durable, in one frame: the poll behind every
        ``Dependency.is_persistent``."""
        mark, above, lost = self._low_water, self._durable_above, self._lost
        for record_id in record_ids:
            if record_id < mark:
                if lost and record_id in lost:
                    return False
            elif record_id not in above:
                return False
        return True

    @property
    def durable_count(self) -> int:
        lost_below = sum(1 for r in self._lost if r < self._low_water)
        return self._low_water - lost_below + len(self._durable_above)

    # -- snapshot/restore for block-level crash-state enumeration ------

    def snapshot(self) -> Tuple[int, int, FrozenSet[int], FrozenSet[int]]:
        """Opaque to callers, except that item 0 is the next unallocated id."""
        return (
            self._next_id,
            self._low_water,
            frozenset(self._durable_above),
            frozenset(self._lost),
        )

    def restore(self, snap: Tuple[int, int, FrozenSet[int], FrozenSet[int]]) -> None:
        self._next_id, self._low_water, above, lost = snap
        self._durable_above = set(above)
        self._lost = set(lost)


class FutureCell:
    """A promise for a dependency whose writes do not exist yet."""

    __slots__ = ("label", "_resolved")

    def __init__(self, label: str = "") -> None:
        self.label = label
        self._resolved: Optional[Dependency] = None

    @property
    def resolved(self) -> Optional["Dependency"]:
        return self._resolved

    def resolve(self, dep: "Dependency") -> None:
        """Fill the promise.  Resolving twice keeps the *conjunction*.

        A memtable entry can be covered by more than one flush (e.g. a
        re-put before the first flush); requiring all resolutions keeps the
        cell conservative -- it never reports persistent early.
        """
        if self._resolved is None:
            self._resolved = dep
        else:
            self._resolved = self._resolved.and_(dep)


_Part = Union[FrozenSet[int], FutureCell]


class Dependency:
    """An immutable conjunction of write records and future promises.

    Mirrors the paper's API: combine with :meth:`and_`, poll with
    :meth:`is_persistent`.
    """

    __slots__ = ("_tracker", "_records", "_futures")

    def __init__(
        self,
        tracker: DurabilityTracker,
        records: FrozenSet[int] = frozenset(),
        futures: Tuple[FutureCell, ...] = (),
    ) -> None:
        self._tracker = tracker
        self._records = records
        self._futures = futures

    # -- constructors ---------------------------------------------------

    @classmethod
    def root(cls, tracker: DurabilityTracker) -> "Dependency":
        """The empty dependency: always persistent."""
        return cls(tracker)

    @classmethod
    def on_records(
        cls, tracker: DurabilityTracker, record_ids: Iterable[int]
    ) -> "Dependency":
        return cls(tracker, records=frozenset(record_ids))

    @classmethod
    def on_future(cls, tracker: DurabilityTracker, cell: FutureCell) -> "Dependency":
        return cls(tracker, futures=(cell,))

    # -- combinators ------------------------------------------------------

    def and_(self, other: "Dependency") -> "Dependency":
        """Conjunction: persistent only when both inputs are persistent."""
        if other._tracker is not self._tracker:
            raise ValueError("cannot combine dependencies across systems")
        # The root is the identity and conjunction is idempotent; handing
        # back an operand is safe because dependencies are immutable.
        if other is self or not (other._records or other._futures):
            return self
        if not (self._records or self._futures):
            return other
        futures = self._futures + tuple(
            f for f in other._futures if f not in self._futures
        )
        return Dependency(self._tracker, self._records | other._records, futures)

    @staticmethod
    def all_(deps: Iterable["Dependency"]) -> "Dependency":
        """Conjunction of many dependencies (empty iterable is an error)."""
        deps = list(deps)
        if not deps:
            raise ValueError("all_ of no dependencies; use Dependency.root")
        out = deps[0]
        for dep in deps[1:]:
            out = out.and_(dep)
        return out

    # -- queries ----------------------------------------------------------

    def is_persistent(self) -> bool:
        """True iff every write this operation depends on is durable.

        Asked of the tracker on every call and never remembered: under
        block-level crash enumeration :meth:`DurabilityTracker.restore`
        rewinds durability, so a dependency that was persistent can stop
        being so.
        """
        if not self._futures:
            # Root or records-only (the scheduler's queue heads): no cell
            # to chase, so no flattened copy to build.
            return self._tracker.all_durable(self._records)
        resolved_records, unresolved = self._flatten()
        if unresolved:
            return False
        return self._tracker.all_durable(resolved_records)

    def _flatten(self) -> Tuple[Set[int], List[FutureCell]]:
        """Chase future cells; return (all record ids, unresolved cells)."""
        records: Set[int] = set(self._records)
        unresolved: List[FutureCell] = []
        stack: List[FutureCell] = list(self._futures)
        seen: Set[int] = set()
        while stack:
            cell = stack.pop()
            if id(cell) in seen:
                continue
            seen.add(id(cell))
            resolved = cell.resolved
            if resolved is None:
                unresolved.append(cell)
            else:
                records |= resolved._records
                stack.extend(resolved._futures)
        return records, unresolved

    def record_ids(self) -> FrozenSet[int]:
        """All record ids currently reachable (unresolved futures excluded)."""
        records, _ = self._flatten()
        return frozenset(records)

    def unresolved_futures(self) -> List[FutureCell]:
        _, unresolved = self._flatten()
        return unresolved

    @property
    def tracker(self) -> DurabilityTracker:
        return self._tracker

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        records, unresolved = self._flatten()
        return (
            f"Dependency(records={sorted(records)}, "
            f"unresolved={[c.label for c in unresolved]})"
        )


def dependency_graph_edges(
    tracker: DurabilityTracker, record_ids: Iterable[int]
) -> List[Tuple[int, int]]:
    """Edges (prerequisite -> dependent) of the write-ordering DAG.

    Walks :attr:`DurabilityTracker.record_info` transitively from the given
    records; used by the Fig. 2 benchmark to render put dependency graphs.
    The tracker must have been capturing when the records were queued.
    """
    if tracker.record_info is None:
        raise ValueError("tracker.capture_record_info() was never switched on")
    edges: List[Tuple[int, int]] = []
    seen: Set[int] = set()
    stack = list(record_ids)
    while stack:
        rid = stack.pop()
        if rid in seen:
            continue
        seen.add(rid)
        info = tracker.record_info.get(rid)
        if info is None:
            continue
        for dep_id in sorted(info.dep.record_ids()):
            edges.append((dep_id, rid))
            stack.append(dep_id)
    return edges
