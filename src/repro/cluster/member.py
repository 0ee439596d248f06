"""One cluster member: a storage node plus the replica state it owns.

``models/cluster.py`` states "newer wins" per replica: a write is valid at
a replica iff its version exceeds the one stored there.  A
:class:`ClusterNode` evaluates that predicate itself, from two columns
over the keys it holds: a *version column* (``key -> version``, so an
apply costs one write, no read) and a *leaf column* (one
:class:`~repro.shardstore.merkle.MerkleMap` per placement group over
``key -> record digest``, which anti-entropy compares across members),
both set from a record by one method, :meth:`ClusterNode._note`.  Only
:meth:`ClusterNode.apply_if_newer` and :meth:`ClusterNode.remove` call
the node's ``put`` or ``delete`` in the cluster package.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.concurrency.primitives import Mutex
from repro.errors import NotFoundError, ShardStoreError
from repro.shardstore.merkle import EMPTY_DIGEST, MerkleMap, combine_roots
from repro.shardstore.observability.journal import Journal, digest_bytes
from repro.shardstore.rpc import StorageNode

from .record import record_version

__all__ = ["ClusterNode", "Group"]

#: A placement group: a key's preference list, in preference order.
Group = Tuple[int, ...]


class ClusterNode:
    """One member: a :class:`StorageNode`, its status and its columns.

    ``group(key)`` is the router's key -> placement-group lookup; a ring
    change is followed by :meth:`refile`.
    """

    def __init__(
        self, node_id: int, node: StorageNode, journal: Optional[Journal],
        group: Callable[[bytes], Group],
    ) -> None:
        self.node_id = node_id
        self.node = node
        self.journal = journal
        self.up = True
        self.partitioned = False
        self.demoted = False
        self.removed = False
        self.failures = 0  # consecutive replica-side errors
        self.probe_at = 0  # op-clock time of the next readmission probe
        self._group = group
        #: The leaf column, one tree per placement group (a stray copy is
        #: filed under its key's group, which this member is not in).
        self.trees: Dict[Group, MerkleMap] = {}
        #: The version column: a key not listed is known absent, one mapped
        #: to ``None`` is unknown (its write raised) and is read through;
        #: ``None`` as a whole: a rebuild could not list the replica.
        self.versions: Optional[Dict[bytes, Optional[int]]] = {}
        # Serializes each conditional apply (version lookup or read-through,
        # write, column update) and each read-and-note; under the
        # deterministic scheduler this keeps replica versions monotone.
        self.lock: Mutex = Mutex(None, name=f"cluster-node-{node_id}")

    @property
    def reachable(self) -> bool:
        return (
            self.up
            and not self.partitioned
            and not self.demoted
            and not self.removed
        )

    def status(self) -> str:
        if self.removed:
            return "removed"
        if not self.up:
            return "crashed"
        if self.partitioned:
            return "partitioned"
        if self.demoted:
            return "demoted"
        return "up"

    def read(self, key: bytes, deadline: Optional[int] = None) -> Optional[bytes]:
        """This replica's record for ``key``, or None when it answers
        absent.  Every read of a replica record goes through here; any
        other error propagates for the caller's own policy."""
        try:
            return self.node.get(key, deadline=deadline)
        except NotFoundError:
            return None

    # ------------------------------------------------------------------
    # the columns

    def version(self, key: bytes) -> Optional[int]:
        """The version held for ``key`` (-1 = absent), or ``None`` when
        the version column does not know it."""
        if self.versions is None:
            return None
        return self.versions.get(key, -1)

    def _tree(self, key: bytes) -> MerkleMap:
        """The tree ``key``'s leaf belongs in."""
        group = self._group(key)
        tree = self.trees.get(group)
        if tree is None:
            tree = self.trees[group] = MerkleMap()
        return tree

    def _note(self, key: bytes, raw: Optional[bytes]) -> int:
        """Set both columns of ``key`` from a record of this replica
        (``raw`` None: it answered absent); returns the version."""
        if raw is None:
            tree = self.trees.get(self._group(key))
            if tree is not None:
                tree.remove(key)
            if self.versions is not None:
                self.versions.pop(key, None)
            return -1
        self._tree(key).set(key, digest_bytes(raw))
        version = record_version(raw)
        if self.versions is not None:
            self.versions[key] = version
        return version

    def _unknown(self, key: bytes) -> None:
        """A write of ``key`` raised: it may or may not have applied."""
        if self.versions is not None:
            self.versions[key] = None

    # ------------------------------------------------------------------
    # replica IO

    def apply_if_newer(
        self, key: bytes, record: bytes, cop: int = 0, deadline: Optional[int] = None
    ) -> None:
        """Write ``record`` here iff its version is newer than the one held.

        The held version comes from the version column (an unknown one is
        read through); the check and the write are one critical section
        under :attr:`lock`.  Returning is the ack, and it follows a drain,
        which leaves the index entry in the memtable: a dirty restart
        loses it, so an acked write survives only while a holder stays up.
        """
        version = record_version(record)
        self.lock.acquire()
        try:
            current = self.version(key)
            if current is None:
                current = self._note(key, self.read(key, deadline))
            if current >= version:
                return
            if self.journal is not None and cop:
                self.journal.annotate(cop=cop)
            try:
                self.node.put(key, record, deadline=deadline)
            except ShardStoreError:
                # The write may have applied before it raised.
                self._unknown(key)
                raise
            # Note the apply before the drain: the record is on the node
            # either way, and a dirty restart rebuilds the columns.
            self._note(key, record)
            self.node.drain()
        finally:
            self.lock.release()

    def remove(self, key: bytes) -> None:
        """Delete this replica's copy of ``key`` (rebalance's stray-copy
        drop).  A delete that raises leaves the key unknown."""
        try:
            self.node.delete(key)
        except ShardStoreError:
            self._unknown(key)
            raise
        self._note(key, None)

    def read_through(self, key: bytes) -> Optional[bytes]:
        """Read ``key`` and re-derive both columns from the record, under
        :attr:`lock` as an apply does, so no concurrent apply can land
        between the read and the re-derivation."""
        with self.lock:
            raw = self.read(key)
            self._note(key, raw)
        return raw

    # ------------------------------------------------------------------
    # rebuild, refile, roots

    def rebuild(self) -> None:
        """Re-derive both columns from the store after a dirty restart,
        which may have lost writes the columns still list.  A removed
        member is skipped: nothing reads its columns, and its reads would
        add records to its journal."""
        if self.removed:
            return
        self.trees = {}
        self.versions = None
        try:
            keys = self.node.keys()
        except ShardStoreError:
            return
        self.versions = {}
        for key in keys:
            try:  # listed, but the replica may answer absent
                self._note(key, self.read(key))
            except ShardStoreError:
                self._unknown(key)

    def refile(self) -> None:
        """The ring changed: file every leaf under its key's new group."""
        groups, self.trees = self.trees, {}
        for tree in groups.values():
            for key, digest in tree.items():
                self._tree(key).set(key, digest)

    def group_root(self, group: Group) -> str:
        tree = self.trees.get(group)
        return EMPTY_DIGEST if tree is None else tree.root()

    def root(self) -> str:
        """The whole root: the group roots combined (journal surface)."""
        return combine_roots(tree.root() for tree in self.trees.values())
