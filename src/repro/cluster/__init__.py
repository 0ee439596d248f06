"""Fault-tolerant multi-node cluster layer (quorum replication).

See :mod:`repro.cluster.router` for the consistency argument and the
three planes that check it (campaign PBT, merged-journal trace replay,
deterministic model checking), :mod:`repro.cluster.member` for the state
each member owns, and :mod:`repro.cluster.antientropy` for the Merkle
anti-entropy protocol that heals divergence read-repair cannot reach.
"""

from .antientropy import AntiEntropyService
from .record import FLAG_TOMBSTONE, FLAG_VALUE, decode_record, encode_record
from .ring import HashRing
from .member import ClusterNode
from .router import ClusterConfig, ClusterRouter

__all__ = [
    "AntiEntropyService",
    "HashRing",
    "FLAG_TOMBSTONE",
    "FLAG_VALUE",
    "ClusterConfig",
    "ClusterNode",
    "ClusterRouter",
    "decode_record",
    "encode_record",
]
