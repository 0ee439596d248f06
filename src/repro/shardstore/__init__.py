"""The ShardStore substrate: a key-value storage node over append-only
extents with soft-updates crash consistency (sections 2 and 5 of the paper).
"""

from .buffer_cache import BufferCache
from .chunk import (
    KIND_DATA,
    KIND_RUN,
    DecodedChunk,
    Locator,
    decode_chunk,
    encode_chunk,
    frame_size,
    scan_chunks,
)
from .chunk_store import ChunkStore
from .config import (
    FIRST_DATA_EXTENT,
    METADATA_EXTENTS,
    SUPERBLOCK_EXTENTS,
    StoreConfig,
)
from .dependency import Dependency, DurabilityTracker, FutureCell
from .disk import DiskGeometry, FailureMode, FaultKind, InMemoryDisk
from .errors import (
    MAX_KEY_LEN,
    CorruptionError,
    DeadlineExceededError,
    ExtentError,
    InvalidRequestError,
    IoError,
    KeyNotFoundError,
    NotFoundError,
    OverloadedError,
    RetryableError,
    ShardStoreError,
    validate_key,
)
from .faults import FAULT_CATALOG, Fault, FaultSet, component_of, detector_for
from .lsm import LsmIndex, Run
from .observability import (
    NULL_RECORDER,
    Journal,
    JournalEnvelope,
    JournalError,
    NullRecorder,
    Recorder,
    RingRecorder,
    merge_metrics,
    read_journal,
    render_snapshot,
)
from .reclamation import Reclaimer, ReclaimResult
from .protocol import KVNode, Request, Response, decode_request, decode_response, dispatch, encode_request, encode_response
from .resilience import (
    AdmissionConfig,
    BreakerState,
    CircuitBreaker,
    DiskAdmission,
    DiskHealth,
    LatencyEwma,
    RetryBudget,
)
from .injection import FaultPlan, FaultInjector, PlannedFault
from .rpc import NodeDependency, StorageNode
from .scrub import RepairReport, ScrubReport, Scrubber
from .scheduler import IoScheduler
from .store import RebootType, ShardStore, StoreSystem
from .superblock import Superblock, SuperblockState

__all__ = [
    "AdmissionConfig",
    "BreakerState",
    "BufferCache",
    "ChunkStore",
    "CircuitBreaker",
    "CorruptionError",
    "DeadlineExceededError",
    "DecodedChunk",
    "Dependency",
    "DiskAdmission",
    "DiskGeometry",
    "DurabilityTracker",
    "ExtentError",
    "DiskHealth",
    "LatencyEwma",
    "OverloadedError",
    "RetryBudget",
    "FAULT_CATALOG",
    "FIRST_DATA_EXTENT",
    "FailureMode",
    "Fault",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSet",
    "FutureCell",
    "InMemoryDisk",
    "InvalidRequestError",
    "IoError",
    "IoScheduler",
    "Journal",
    "JournalEnvelope",
    "JournalError",
    "KIND_DATA",
    "KIND_RUN",
    "KVNode",
    "KeyNotFoundError",
    "Locator",
    "LsmIndex",
    "MAX_KEY_LEN",
    "METADATA_EXTENTS",
    "NULL_RECORDER",
    "NodeDependency",
    "NotFoundError",
    "NullRecorder",
    "PlannedFault",
    "RebootType",
    "Recorder",
    "RepairReport",
    "RingRecorder",
    "Request",
    "Response",
    "ReclaimResult",
    "Reclaimer",
    "RetryableError",
    "Run",
    "ScrubReport",
    "Scrubber",
    "SUPERBLOCK_EXTENTS",
    "ShardStore",
    "ShardStoreError",
    "StorageNode",
    "StoreConfig",
    "StoreSystem",
    "Superblock",
    "SuperblockState",
    "component_of",
    "decode_chunk",
    "decode_request",
    "decode_response",
    "detector_for",
    "dispatch",
    "encode_chunk",
    "encode_request",
    "encode_response",
    "frame_size",
    "merge_metrics",
    "read_journal",
    "render_snapshot",
    "scan_chunks",
    "validate_key",
]
