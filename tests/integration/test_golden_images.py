"""Golden on-disk bytes: a fixed workload must leave the same disk images.

Performance work on the write path (incremental superblock and LSM
metadata records, index lookups, scheduler bookkeeping) may change how
records are *built*, never what is written or in which order.  This drives
the cost ladder's ``node-ingest`` shape -- 3 disks, 2,000 keys, 256-byte
values, 80/10/5/5 put/get/delete/contains, flush every 128 ops, drain every
1,024 -- plus a full reclamation pass and a compaction every 2,048 ops, so
flush, compaction and run-relocation metadata records, held-back and
released superblock pointers and extent resets are all in the images.

The digests were computed at commit 736a492 (before the records became
incremental).  A change that is *meant* to alter on-disk bytes re-pins them
and says so; anything else that moves them is a bug.
"""

import hashlib
import random

from repro.shardstore import DiskGeometry, StorageNode, StoreConfig
from repro.shardstore.errors import NotFoundError

SEED = 7
OPS = 4_096
KEYS = 2_000
VALUE_SIZE = 256

GOLDEN_IMAGE_SHA256 = [
    "a68100d0c00c875b1229cd122fda39801cd501b4f26d529efdb8de7621c17986",
    "9380cf47c84a53b84aa1eb2aa341a8891f9338670c8c317c159a43f4c24494f8",
    "a9a968625a154aee3fbacf95554e31fafca6f551b3c1934b0e6d5f2d667eb8d4",
]


def _image_digest(disk) -> str:
    """Hash the full-extent image: extents materialise lazily, so each
    snapshot is zero-padded to the extent size the digests were pinned at."""
    digest = hashlib.sha256()
    for data, write_pointer, reset_count in disk.snapshot():
        digest.update(b"%d:%d:" % (write_pointer, reset_count))
        digest.update(data.ljust(disk.geometry.extent_size, b"\0"))
    return digest.hexdigest()


def ingest_image_digests(seed: int = SEED, ops: int = OPS):
    node = StorageNode(
        num_disks=3,
        config=StoreConfig(
            geometry=DiskGeometry(64, 65536, 512),
            max_chunk_payload=4096,
            memtable_flush_threshold=64,
            buffer_cache_pages=256,
            seed=seed,
        ),
    )
    rng = random.Random(seed)
    blob = rng.randbytes(VALUE_SIZE + 3 * 17)
    for i in range(ops):
        key = b"k-%07d" % rng.randrange(KEYS)
        draw = rng.random()
        try:
            if draw < 0.80:
                start = 17 * rng.randrange(4)
                node.put(key, blob[start : start + VALUE_SIZE])
            elif draw < 0.90:
                node.get(key)
            elif draw < 0.95:
                node.delete(key)
            else:
                node.contains(key)
        except NotFoundError:
            pass
        if (i + 1) % 128 == 0:
            node.flush()
        if (i + 1) % 1024 == 0:
            node.drain()
        if (i + 1) % 2048 == 0:
            for system in node.systems:
                # Reclaim first, so live run chunks get relocated; then merge.
                for extent in system.store.reclaimable_extents():
                    system.store.reclaim(extent)
                system.store.compact()
    node.flush()
    node.drain()
    return [_image_digest(system.disk) for system in node.systems]


def test_ingest_shape_disk_images_match_the_pinned_digests():
    assert ingest_image_digests() == GOLDEN_IMAGE_SHA256
