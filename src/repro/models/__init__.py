"""Executable reference models -- the specifications (section 3.2).

Each model provides the same interface as its ShardStore component with
the simplest possible implementation (a dict), is used as the oracle in
conformance property tests, and doubles as a mock in unit tests so the
engineering team keeps the specifications up to date.
"""

from .candidates import CandidateModel, Candidates
from .chunkstore import ModelLocator, ReferenceChunkStore
from .cluster import ReferenceCluster
from .crash import CrashAwareModel, LoggedOp
from .index import ReferenceIndex
from .kvstore import ReferenceKvStore

__all__ = [
    "CandidateModel",
    "Candidates",
    "CrashAwareModel",
    "LoggedOp",
    "ModelLocator",
    "ReferenceChunkStore",
    "ReferenceCluster",
    "ReferenceIndex",
    "ReferenceKvStore",
]
