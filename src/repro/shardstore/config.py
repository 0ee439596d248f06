"""Configuration for a single-disk ShardStore instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .disk import DiskGeometry
from .faults import FaultSet
from .observability import NULL_RECORDER, Recorder
from .observability.journal import Journal

#: Extents 0 and 1 alternate as the superblock log (section 2.1's extent 0).
SUPERBLOCK_EXTENTS: Tuple[int, int] = (0, 1)
#: Extents 2 and 3 alternate as the reserved LSM metadata extent.
METADATA_EXTENTS: Tuple[int, int] = (2, 3)
#: First extent available for chunk data.
FIRST_DATA_EXTENT = 4


@dataclass
class StoreConfig:
    """Tunables for one ShardStore key-value store (one disk).

    The defaults are sized for testing: small pages and extents make
    page-boundary corner cases (the paper's most frequent bug source,
    section 4.2) and extent-exhaustion/reclamation paths cheap to reach.
    """

    geometry: DiskGeometry = field(
        default_factory=lambda: DiskGeometry(
            num_extents=16, extent_size=4096, page_size=128
        )
    )
    faults: FaultSet = field(default_factory=FaultSet.none)
    #: Payload bytes per chunk; shards larger than this span several chunks.
    max_chunk_payload: int = 256
    #: Memtable entries that trigger an automatic LSM flush.
    memtable_flush_threshold: int = 8
    #: Appends between automatic superblock flushes ("regular cadence").
    superblock_flush_cadence: int = 6
    #: Page-cache capacity, in pages.
    buffer_cache_pages: int = 64
    #: Seed for the store's internal RNG (chunk UUIDs, writeback order).
    seed: int = 0
    #: Probability that a generated chunk UUID's tail bytes collide with the
    #: chunk magic -- an argument *bias* (section 4.2) that makes the paper's
    #: bug #10 scenario reachable in reasonable test budgets.  Zero disables.
    uuid_magic_bias: float = 0.0
    #: Trace/metrics sink threaded through every component.  The default
    #: :class:`NullRecorder` keeps hot paths allocation-free; pass a
    #: :class:`~repro.shardstore.observability.RingRecorder` to capture.
    recorder: Recorder = field(default=NULL_RECORDER)
    #: Evidence-plane op journal (see :mod:`repro.shardstore.observability.
    #: journal`).  ``None`` (the default) keeps the request plane free of
    #: journaling entirely; a :class:`StorageNode` propagates one shared
    #: instance into its per-disk stores, and the journal's nesting guard
    #: ensures each client-visible operation emits exactly one record.
    journal: Optional[Journal] = None

    def __post_init__(self) -> None:
        # Below one, the cache evicts every page it inserts (or fails on an
        # empty dict) and shard splitting has no step: both would surface
        # as raw errors far from the bad value.
        for name in ("buffer_cache_pages", "max_chunk_payload"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.geometry.num_extents < FIRST_DATA_EXTENT + 2:
            raise ValueError(
                f"need at least {FIRST_DATA_EXTENT + 2} extents "
                "(superblock pair, metadata pair, and two data extents)"
            )
        frame_overhead = 64  # generous bound; chunk.FRAME_OVERHEAD is exact
        if self.max_chunk_payload + frame_overhead > self.geometry.extent_size:
            raise ValueError("max_chunk_payload too large for extent size")

    @property
    def data_extents(self) -> range:
        return range(FIRST_DATA_EXTENT, self.geometry.num_extents)
