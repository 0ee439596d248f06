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

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)


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

    :attr:`epoch` counts the events after which a met dependency may be
    met no longer: a :meth:`restore` (durability rewound), a
    :meth:`mark_lost` and a second :meth:`FutureCell.resolve` (a cell's
    footprint grown).  Nothing else takes durability away, so an answer
    "met" stamped with the epoch stands for as long as the epoch does.
    """

    def __init__(self) -> None:
        self._next_id = 0
        self._low_water = 0
        self._durable_above: Set[int] = set()
        self._lost: Set[int] = set()
        self.epoch = 0
        #: One :class:`RecordInfo` per IO record queued after
        #: :meth:`capture_record_info`; None (the default) keeps nothing, so
        #: a long-running store's bookkeeping does not grow with its history.
        self.record_info: Optional[Dict[int, RecordInfo]] = None
        #: The empty dependency, always persistent: one per tracker, since
        #: a dependency is immutable (:meth:`Dependency.root` hands it out).
        self.empty = Dependency(self)

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
        self.epoch += 1
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
        if record_id < self._low_water:
            return record_id not in self._lost
        return record_id in self._durable_above

    def all_durable(self, record_ids: Iterable[int]) -> bool:
        return all(map(self.is_durable, record_ids))

    @property
    def durable_count(self) -> int:
        lost_below = sum(1 for r in self._lost if r < self._low_water)
        return self._low_water - lost_below + len(self._durable_above)

    def durable_key(self) -> Tuple[int, FrozenSet[int], FrozenSet[int]]:
        """The durable set in canonical form, what identifies a crash state:
        the low-water mark, the lost ids below it and the durable ids above
        it.  Equal keys mean equal durable sets; between trackers that lost
        the same ids (the states one crash exploration visits) the converse
        holds too.  Costs the sparse sets, not the ids ever allocated."""
        mark = self._low_water
        return (
            mark,
            frozenset(r for r in self._lost if r < mark),
            frozenset(self._durable_above),
        )

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
        self.epoch += 1


#: ``FutureCell``'s "the label is not a format" marker.
_PLAIN = object()


class FutureCell:
    """A promise for a dependency whose writes do not exist yet.

    ``resolved`` is the dependency it was resolved to, None until then;
    read it, but fill it only through :meth:`resolve`.  The label is kept
    as given -- a format and its argument, ``FutureCell("sb-ptr@{}", 4)``,
    or a plain string -- and formatted only when read: a put makes a cell,
    and only ``repr`` and error texts ever read one.
    """

    __slots__ = ("resolved", "_label", "_arg")

    def __init__(self, label: str = "", arg: object = _PLAIN) -> None:
        self.resolved: Optional[Dependency] = None
        self._label = label
        self._arg = arg

    @property
    def label(self) -> str:
        if self._arg is _PLAIN:
            return self._label
        return self._label.format(self._arg)

    def resolve(self, dep: "Dependency") -> None:
        """Fill the promise.  Resolving twice keeps the *conjunction*.

        A memtable entry can be covered by more than one flush (e.g. a
        re-put before the first flush); requiring all resolutions keeps the
        cell conservative -- it never reports persistent early.  A second
        resolution can turn a met dependency unmet, so it bumps the
        tracker's :attr:`~DurabilityTracker.epoch`.
        """
        if self.resolved is None:
            self.resolved = dep
        else:
            self.resolved = self.resolved.and_(dep)
            dep._tracker.epoch += 1


_Part = Union[FrozenSet[int], FutureCell]


class Dependency:
    """An immutable conjunction of write records and future promises.

    Mirrors the paper's API: combine with :meth:`and_`, poll with
    :meth:`is_persistent`.  The write path builds its conjunctions with the
    constructor instead, from parts it already holds (a put's chunk and
    index-entry dependencies, ``tests/test_put_dependencies.py``): same
    records, same futures in the same order as :meth:`and_` would give.
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

    @staticmethod
    def root(tracker: DurabilityTracker) -> "Dependency":
        """The empty dependency: always persistent (the tracker's one)."""
        return tracker.empty

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
        # back an operand (or an operand's set or tuple) is safe because
        # dependencies are immutable.
        if other is self or not (other._records or other._futures):
            return self
        if not (self._records or self._futures):
            return other
        records, futures = self._records, self._futures
        if not records:
            records = other._records
        elif other._records and other._records is not records:
            records = records | other._records
        if not futures:
            futures = other._futures
        else:
            for cell in other._futures:
                if cell not in futures:
                    futures += (cell,)
        return Dependency(self._tracker, records, futures)

    @staticmethod
    def all_(deps: Iterable["Dependency"]) -> "Dependency":
        """Conjunction of many dependencies (empty iterable is an error).

        One pass, equal to folding :meth:`and_` left to right: the union of
        the records, and the futures in the order they first appear.
        """
        deps = list(deps)
        if not deps:
            raise ValueError("all_ of no dependencies; use Dependency.root")
        tracker = deps[0]._tracker
        futures: List[FutureCell] = []
        taken: Set[FutureCell] = set()
        for dep in deps:
            if dep._tracker is not tracker:
                raise ValueError("cannot combine dependencies across systems")
            for cell in dep._futures:
                if cell not in taken:
                    taken.add(cell)
                    futures.append(cell)
        records = frozenset().union(*[dep._records for dep in deps])
        return Dependency(tracker, records, tuple(futures))

    # -- queries ----------------------------------------------------------

    def is_persistent(self) -> bool:
        """True iff every write this operation depends on is durable.

        Asked of the tracker on every call and never remembered: under
        block-level crash enumeration :meth:`DurabilityTracker.restore`
        rewinds durability, so a dependency that was persistent can stop
        being so.
        """
        return self.blocker() is None

    def is_persistent_given(self, record_ids: AbstractSet[int]) -> bool:
        """True iff every write this operation depends on is durable or is
        one of ``record_ids``.

        The coalescing writeback's question: a record may share a device IO
        with the records it depends on when they come before it in that IO,
        since the medium lands an IO's bytes in order (a torn write keeps a
        prefix).
        """
        return self.blocker(record_ids) is None

    def blocker(
        self, given: AbstractSet[int] = frozenset()
    ) -> Union[None, int, FutureCell]:
        """What keeps this dependency from persisting: a record id that is
        neither durable nor in ``given``, or an unresolved future cell;
        None when nothing does.

        Walks the records and each reachable cell once, stopping at the
        first miss; builds no flattened copy.  Whatever it names blocks for as long as
        :meth:`held_by` says so -- the footprint only grows (a cell never
        un-resolves, and a second resolution is a conjunction) -- which is
        what lets the scheduler memoise it.
        """
        # DurabilityTracker.is_durable, inlined: this loop is every
        # writeback poll.
        tracker = self._tracker
        mark, above, lost = tracker._low_water, tracker._durable_above, tracker._lost
        part = self
        stack: List[FutureCell] = []
        seen: Set[FutureCell] = set()
        while True:
            for record_id in part._records:
                if record_id < mark:
                    if lost and record_id in lost and record_id not in given:
                        return record_id
                elif record_id not in above and record_id not in given:
                    return record_id
            for cell in part._futures:
                if cell not in seen:
                    seen.add(cell)
                    stack.append(cell)
            if not stack:
                return None
            cell = stack.pop()
            part = cell.resolved
            if part is None:
                return cell

    def held_by(self, blocker: Union[int, FutureCell]) -> bool:
        """Whether a :meth:`blocker` of this dependency still blocks it: the
        record is not durable, or the cell is unresolved."""
        if isinstance(blocker, FutureCell):
            return blocker.resolved is None
        return not self._tracker.is_durable(blocker)

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
