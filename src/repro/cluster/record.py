"""The replica record frame, and a quorum read's reply.

A replica stores ``8-byte big-endian version | flag byte | payload``
under the client's key.  This module is the one place that frame is
encoded and decoded.  An absent record decodes as the oldest tombstone
(version -1), so "absent" needs no special case in any version
comparison.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

__all__ = [
    "FLAG_TOMBSTONE",
    "FLAG_VALUE",
    "Reply",
    "decode_record",
    "encode_record",
    "record_version",
]

#: Replica record flags (one byte after the 8-byte version).
FLAG_VALUE = 0
FLAG_TOMBSTONE = 1


def encode_record(version: int, flag: int, payload: bytes) -> bytes:
    """Frame a replica record: big-endian version, flag byte, payload."""
    if version < 0:
        raise ValueError("version must be non-negative")
    return version.to_bytes(8, "big") + bytes([flag]) + payload


def record_version(raw: Optional[bytes]) -> int:
    """The version framed in a replica record (-1 when absent)."""
    if raw is None:
        return -1
    if len(raw) < 9:
        raise ValueError("replica record too short")
    return int.from_bytes(raw[:8], "big")


def decode_record(raw: Optional[bytes]) -> Tuple[int, int, bytes]:
    """Split a replica record into ``(version, flag, payload)``; an absent
    one (None) is ``(-1, FLAG_TOMBSTONE, b"")``."""
    if raw is None:
        return -1, FLAG_TOMBSTONE, b""
    return record_version(raw), raw[8], raw[9:]


class Reply(NamedTuple):
    """One replica's answer to a quorum read.  "Absent" is an answer too
    (version -1, ``raw`` None), and counts toward the read quorum."""

    node: int
    version: int
    flag: int
    payload: bytes
    raw: Optional[bytes]

    @classmethod
    def of(cls, node: int, raw: Optional[bytes]) -> "Reply":
        return cls(node, *decode_record(raw), raw)

    @property
    def present(self) -> bool:
        """The replica holds a value: a record that is not a tombstone."""
        return self.version >= 0 and self.flag != FLAG_TOMBSTONE
