"""Reference model of the whole key-value store: a dict (section 3.2).

This is the paper's headline specification style: the expected semantics of
ShardStore's API, written as the simplest possible executable code.  The
durability property (section 3.1) is "the model and implementation remain
in equivalent states after each API call", where equivalence is having the
same key-value mapping.

Background operations -- index flush, superblock flush, compaction, chunk
reclamation, clean reboot -- are deliberately *no-ops* here: they must not
change the key-value mapping, and including them in the conformance
alphabet validates exactly that (Fig. 3).

The model doubles as a mock in unit tests (the paper's trick for keeping
models maintained): anything that needs "some key-value store" can take one
of these instead of a real ShardStore.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.shardstore.errors import KeyNotFoundError, NotFoundError, validate_key


class ReferenceKvStore:
    """The executable specification of the ShardStore key-value API.

    Structurally conforms to :class:`repro.shardstore.protocol.KVNode`, so
    it can stand in wherever a real store or node is expected -- including
    the uniform ``delete``-of-absent-key :class:`KeyNotFoundError` contract.
    """

    def __init__(self) -> None:
        self._mapping: Dict[bytes, bytes] = {}

    # -- API operations (mirror ShardStore's signatures) ----------------

    def put(self, key: bytes, value: bytes) -> None:
        validate_key(key)
        self._mapping[key] = value

    def get(self, key: bytes) -> bytes:
        validate_key(key)
        if key not in self._mapping:
            raise NotFoundError(f"no shard for key {key!r}")
        return self._mapping[key]

    def delete(self, key: bytes) -> None:
        validate_key(key)
        if key not in self._mapping:
            raise KeyNotFoundError(f"no shard for key {key!r}")
        del self._mapping[key]

    def contains(self, key: bytes) -> bool:
        validate_key(key)
        return key in self._mapping

    def keys(self) -> List[bytes]:
        return sorted(self._mapping)

    # -- background operations: no-ops in the specification -------------

    def flush(self) -> None:
        """No-op: the specification is immediately durable."""

    def drain(self) -> None:
        """No-op: the specification has no pending IO."""

    def flush_index(self) -> None:
        """No-op: flushing must not change the key-value mapping."""

    def flush_superblock(self) -> None:
        """No-op: superblock maintenance must not change the mapping."""

    def compact(self) -> None:
        """No-op: LSM compaction must not change the mapping."""

    def reclaim(self, extent: int) -> None:
        """No-op: garbage collection must not change the mapping."""

    def clean_reboot(self) -> None:
        """No-op: a clean reboot must not lose or change any data."""

    def scrub(self) -> None:
        """No-op: integrity scrubbing must not change the mapping."""

    def migrate_shard(self, key: bytes, target: int) -> bool:
        """Migration moves data between disks; the mapping is unchanged."""
        return self.contains(key)

    # -- model utilities -------------------------------------------------

    def peek(self, key) -> Optional[bytes]:
        """The value of ``key`` or None.  With :meth:`assign`, for models
        layered on this one: no request validation, any hashable key."""
        return self._mapping.get(key)

    def assign(self, key, value: Optional[bytes]) -> None:
        """Set ``key`` to ``value``; None clears it, present or not."""
        if value is None:
            self._mapping.pop(key, None)
        else:
            self._mapping[key] = value

    def mapping(self) -> Dict[bytes, bytes]:
        """A copy of the current key-value mapping (for invariant checks)."""
        return dict(self._mapping)

    def clone(self) -> "ReferenceKvStore":
        out = ReferenceKvStore()
        out._mapping = dict(self._mapping)
        return out

    def __len__(self) -> int:
        return len(self._mapping)

    def __iter__(self) -> Iterator[bytes]:
        return iter(sorted(self._mapping))
