"""Background scrubbing: proactive integrity verification.

Storage fleets scrub continuously: bit rot and latent sector errors are
found by re-reading and re-validating data before a client does (the
paper's section 7 treats all on-disk bytes as untrusted for exactly this
reason).  The scrubber walks every live index entry, reads each referenced
chunk through the normal read path, and validates framing, checksums, and
key ownership -- without changing any state.

What a scrub validates is what a read returns.  For a page the buffer
cache holds, that is the cached image, not the medium: a stale cached page
is found (fault #2, ``test_scrub_finds_stale_cache_corruption``), but
corruption on the medium under a cached page is found only once that page
is refilled.  The cache's read memos do not change this: a memo is kept
only while the page images it was built from are what the cache serves, so
a scrub validates the same bytes with or without it, and a frame it has
already validated is not decoded again.

In the validation alphabets scrubbing is a background operation that is a
no-op in the reference model; including it both widens coverage (every
live chunk gets decoded each pass) and gives corruption-type faults (#1,
#2, #10) another surface to manifest on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .chunk_store import ChunkStore
from .errors import CorruptionError, IoError
from .lsm import LsmIndex
from .merkle import MerkleMap
from .observability.journal import digest_bytes

#: Leaf digests for keys whose bytes cannot be content-addressed right
#: now.  Distinct domain-separated constants: a corrupt chunk and a
#: transiently unreadable one must diverge from any honest commitment
#: (and from each other), never silently match it.
CORRUPT_LEAF = hashlib.sha256(b"merkle:corrupt").hexdigest()[:16]
IO_ERROR_LEAF = hashlib.sha256(b"merkle:io-error").hexdigest()[:16]


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    keys_checked: int = 0
    chunks_checked: int = 0
    runs_checked: int = 0
    #: (key or run locator description, error message)
    errors: List[Tuple[str, str]] = field(default_factory=list)
    io_errors: int = 0
    #: Keys whose chunks failed validation (inputs to scrub-repair).
    bad_keys: List[bytes] = field(default_factory=list)
    #: LSM run chunks that failed validation.
    bad_runs: int = 0

    @property
    def clean(self) -> bool:
        return not self.errors


@dataclass
class MerkleScrubReport:
    """Outcome of one Merkle integrity proof pass.

    ``proven`` means the root of the *actual* tree (every live value
    re-read through the chunk store and content-addressed now) equals the
    root of the *expected* tree (the store's write-time commitment) -- a
    whole-store integrity proof, not a sample.  When the roots differ the
    descent pins the blast radius to ``diverging`` keys, which feed the
    same heal-or-quarantine path a sampling scrub uses.
    """

    expected_root: str = ""
    actual_root: str = ""
    keys_checked: int = 0
    #: Tree nodes compared during the descent (1 when the roots match).
    compared: int = 0
    #: Keys whose content digest disagrees with the commitment (corrupt,
    #: unreadable, missing, or unexpected).
    diverging: List[bytes] = field(default_factory=list)
    io_errors: int = 0

    @property
    def proven(self) -> bool:
        return self.expected_root == self.actual_root


@dataclass
class RepairReport:
    """Outcome of one scrub-repair pass (:meth:`ShardStore.scrub_repair`).

    ``repaired`` keys were re-read successfully (cache or a surviving
    replica chunk) and rewritten to fresh chunks; ``quarantined`` keys were
    unrecoverable and removed from the index so clients get a typed
    :class:`~repro.shardstore.errors.NotFoundError` instead of silent
    corruption.  ``run_compactions`` counts compactions triggered to rewrite
    corrupt LSM run chunks.
    """

    scanned: ScrubReport = field(default_factory=ScrubReport)
    repaired: List[bytes] = field(default_factory=list)
    quarantined: List[bytes] = field(default_factory=list)
    run_compactions: int = 0
    #: Merkle mode only: the proof before and after repair.
    merkle: Optional[MerkleScrubReport] = None
    merkle_after: Optional[MerkleScrubReport] = None

    @property
    def clean(self) -> bool:
        if self.merkle is not None:
            return self.merkle.proven
        return self.scanned.clean

    @property
    def proven(self) -> bool:
        """Merkle mode: does the store prove intact *after* repair?"""
        report = self.merkle_after or self.merkle
        return report is not None and report.proven


class Scrubber:
    """Re-reads and validates every live chunk the index references."""

    def __init__(self, chunk_store: ChunkStore, index: LsmIndex) -> None:
        self.chunk_store = chunk_store
        self.index = index

    def scrub(self) -> ScrubReport:
        """One full pass.  Transient IO errors are counted, not fatal:
        a scrub must degrade gracefully on a flaky disk."""
        report = ScrubReport()
        for key in self.index.keys():
            locators = self.index.get(key)
            if locators is None:
                continue  # deleted between listing and read: fine
            report.keys_checked += 1
            for locator in locators:
                try:
                    self.chunk_store.get_chunk(locator, expected_key=key)
                    report.chunks_checked += 1
                except CorruptionError as exc:
                    report.errors.append((repr(key), str(exc)))
                    if key not in report.bad_keys:
                        report.bad_keys.append(key)
                except IoError:
                    report.io_errors += 1
        for locator in self.index.run_locators():
            try:
                self.chunk_store.get_chunk(locator)
                report.runs_checked += 1
            except CorruptionError as exc:
                report.errors.append((f"run@{locator}", str(exc)))
                report.bad_runs += 1
            except IoError:
                report.io_errors += 1
        return report

    def merkle_scrub(self, expected: MerkleMap) -> MerkleScrubReport:
        """Prove store integrity by root comparison against ``expected``.

        Re-reads every live key's bytes through the chunk store, hashes
        them content-addressed into an *actual* tree of the same shape as
        the write-time commitment, and compares roots: equality proves
        every live value intact in one comparison.  On divergence the
        Merkle descent pins the exact keys -- corrupt and transiently
        unreadable values get distinct marker leaves so they can never
        masquerade as the committed content.
        """
        report = MerkleScrubReport()
        actual = MerkleMap(fanout=expected.fanout, depth=expected.depth)
        for key in self.index.keys():
            locators = self.index.get(key)
            if locators is None:
                continue  # deleted between listing and read: fine
            report.keys_checked += 1
            try:
                value = self.chunk_store.get_shard(key, locators)
            except CorruptionError:
                actual.set(key, CORRUPT_LEAF)
            except IoError:
                report.io_errors += 1
                actual.set(key, IO_ERROR_LEAF)
            else:
                actual.set(key, digest_bytes(value))
        report.expected_root = expected.root()
        report.actual_root = actual.root()
        buckets, report.compared = expected.diff(actual)
        for bucket in buckets:
            mine = expected.bucket_items(bucket)
            theirs = actual.bucket_items(bucket)
            for key in sorted(set(mine) | set(theirs)):
                if mine.get(key) != theirs.get(key):
                    report.diverging.append(key)
        return report
