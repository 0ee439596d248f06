"""Chunk framing and extent scanning.

All persistent data in ShardStore -- shard payloads and LSM-tree runs alike
-- is stored as *chunks* written onto extents (section 2.1).  A chunk's
on-disk frame follows the paper's section 5 description: a two-byte magic
header and a random UUID, with the UUID repeated at the end of the frame to
validate the chunk's length::

    magic(2) | uuid(16) | body_len(4) | crc32(body)(4) | body | uuid(16)
    body = kind(1) | key_len(2) | key | payload

The frame layout is exactly what makes the paper's bug #10 possible: if a
torn append loses the tail of the trailing UUID and the extent is then
re-used from the recovered write pointer, the bytes where the tail used to
be are the *next* chunk's magic -- and if the lost UUID bytes happened to
equal the magic, a sequential scan "successfully" decodes the corrupt chunk
and skips right over the live one.  :func:`scan_chunks` implements both the
buggy strictly-sequential scan (fault #10) and the fixed scan that also
probes every page boundary, so overlapping decodes can never hide a chunk.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

from .errors import CorruptionError, IoError

CHUNK_MAGIC = b"MC"
UUID_LEN = 16
_HEADER = struct.Struct(f"<2s{UUID_LEN}sII")  # magic | uuid | body_len | crc
_HEADER_LEN = _HEADER.size
FRAME_OVERHEAD = _HEADER_LEN + UUID_LEN  # plus trailing uuid
_BODY_HEADER = struct.Struct("<BH")  # kind + key length

KIND_DATA = 0
KIND_RUN = 1
_KNOWN_KINDS = (KIND_DATA, KIND_RUN)


@dataclass(frozen=True, order=True)
class Locator:
    """An opaque pointer to one chunk: extent, byte offset, frame length."""

    extent: int
    offset: int
    length: int

    def to_value(self) -> list:
        return [self.extent, self.offset, self.length]

    @classmethod
    def from_value(cls, value: object) -> "Locator":
        if (
            not isinstance(value, list)
            or len(value) != 3
            or not all(isinstance(v, int) for v in value)
            or any(v < 0 for v in value)
        ):
            raise CorruptionError("malformed locator")
        return cls(*value)


class DecodedChunk(NamedTuple):
    """A successfully decoded chunk frame.

    Immutable like :class:`Locator`, but a tuple: one is built per chunk
    read or scanned, and a frozen dataclass pays an ``object.__setattr__``
    per field to construct.
    """

    kind: int
    key: bytes
    payload: bytes
    frame_length: int
    uuid: bytes


def frame_size(key: bytes, payload: "bytes | bytearray | memoryview") -> int:
    return FRAME_OVERHEAD + _BODY_HEADER.size + len(key) + len(payload)


def encode_chunk(
    kind: int, key: bytes, payload: "bytes | bytearray | memoryview", uuid: bytes
) -> bytes:
    """Serialize one chunk frame.

    ``payload`` may be any buffer (bytes or a memoryview slice of a larger
    shard value).  The body CRC is chained across the parts and the frame
    assembled with a single join, so payload bytes are copied exactly once
    -- on the old path they were copied at every layer boundary.
    """
    if len(uuid) != UUID_LEN:
        raise ValueError("uuid must be 16 bytes")
    if kind not in _KNOWN_KINDS:
        raise ValueError(f"unknown chunk kind {kind}")
    if len(key) > 0xFFFF:
        raise ValueError("key too long for chunk frame")
    body_header = _BODY_HEADER.pack(kind, len(key))
    body_len = _BODY_HEADER.size + len(key) + len(payload)
    crc = zlib.crc32(payload, zlib.crc32(key, zlib.crc32(body_header)))
    header = _HEADER.pack(CHUNK_MAGIC, uuid, body_len, crc)
    return b"".join((header, body_header, key, payload, uuid))


def decode_chunk(
    buf: "bytes | bytearray | memoryview", offset: int = 0
) -> DecodedChunk:
    """Decode an untrusted chunk frame at ``offset``.

    Raises :class:`CorruptionError` on any malformed input; never any other
    exception (checked by the serialization fuzz harness).
    """
    if offset < 0 or offset + _HEADER_LEN > len(buf):
        raise CorruptionError("chunk header out of bounds")
    magic, uuid, body_len, crc = _HEADER.unpack_from(buf, offset)
    if magic != CHUNK_MAGIC:
        raise CorruptionError("bad chunk magic")
    return _decode_body(buf, offset, uuid, body_len, crc)


def _decode_body(
    buf: "bytes | bytearray | memoryview",
    offset: int,
    uuid: bytes,
    body_len: int,
    crc: int,
) -> DecodedChunk:
    """Validate and decode the frame whose unpacked header is given.

    The one frame parser behind :func:`decode_chunk` (a point read) and
    :func:`scan_chunks` (which has already unpacked the header to bound its
    next page read).  ``buf`` may be a scan's growing ``bytearray``: the
    body is checked through a view that is released on every way out,
    because an export still alive -- a view kept in a result, or pinned by
    a propagating exception's traceback -- would make the next
    ``bytearray`` resize raise ``BufferError``.
    """
    body_start = offset + _HEADER_LEN
    trailer_start = body_start + body_len
    frame_end = trailer_start + UUID_LEN
    if frame_end > len(buf):
        raise CorruptionError("chunk frame out of bounds")
    # Validate through a view so the body is not copied just to be checked;
    # only the key and payload are materialised as bytes.
    with memoryview(buf) as view:
        if zlib.crc32(view[body_start:trailer_start]) != crc:
            raise CorruptionError("chunk body checksum mismatch")
        if view[trailer_start:frame_end] != uuid:
            raise CorruptionError("chunk trailing uuid mismatch")
        if body_len < _BODY_HEADER.size:
            raise CorruptionError("chunk body too short")
        kind, key_len = _BODY_HEADER.unpack_from(view, body_start)
        if kind not in _KNOWN_KINDS:
            raise CorruptionError(f"unknown chunk kind {kind}")
        if _BODY_HEADER.size + key_len > body_len:
            raise CorruptionError("chunk key out of bounds")
        key_end = body_start + _BODY_HEADER.size + key_len
        return DecodedChunk(
            kind,
            bytes(view[key_end - key_len : key_end]),
            bytes(view[key_end:trailer_start]),
            frame_end - offset,
            uuid,
        )


class PagedReader:
    """Lazily reads an extent page by page into one growing buffer.

    Reclamation scans can hit injected IO failures mid-extent; reading page
    by page (rather than the whole extent up front) is what lets a
    transient error strike partway through a scan -- the setting of the
    paper's bug #5.  Every page is read exactly once, in ascending order.
    """

    def __init__(
        self,
        read_fn: Callable[[int, int], bytes],
        limit: int,
        page_size: int,
    ) -> None:
        self._read_fn = read_fn  # (offset, length) -> bytes
        self.limit = limit
        self._page_size = page_size
        self._buf = bytearray()

    def ensure(self, upto: int) -> bytearray:
        """Read pages until bytes [0, min(upto, limit)) are held; may raise
        IoError (the buffer then keeps the pages read before the failure).

        Returns the reader's buffer itself -- the same ``bytearray`` on
        every call, usually longer than ``upto``, never a copy of the
        prefix.  It grows in place, so a caller must not keep a
        ``memoryview`` of it across a call to ``ensure``.
        """
        buf = self._buf
        upto = min(upto, self.limit)
        while len(buf) < upto:
            start = len(buf)
            buf += self._read_fn(start, min(self._page_size, self.limit - start))
        return buf


def scan_chunks(
    reader: PagedReader,
    page_size: int,
    *,
    sequential_only: bool = False,
    on_read_error: str = "raise",
) -> List[Tuple[int, DecodedChunk]]:
    """Find every decodable chunk on an extent.

    The **fixed** scan tries to decode at every page boundary *and* at the
    end of every successfully decoded chunk, collecting all hits; a corrupt
    chunk that happens to decode over a live one (the bug #10 collision)
    cannot hide the live chunk, because the live chunk's own page-aligned
    start is still probed.

    With ``sequential_only=True`` (fault #10) the scan is the paper's buggy
    original: strictly sequential, advancing past each decoded chunk's
    claimed footprint and skipping to the next page boundary on failure --
    so an overlapping decode swallows its successor.

    ``on_read_error`` is ``"raise"`` (fixed: abort the scan, reclamation
    retries later) or ``"truncate"`` (fault #5: treat the unreadable tail
    as end-of-extent, forgetting any chunks on it).

    Cost: one ``read_fn`` call per page reached, one CRC per frame decoded
    (each offset decodes at most once) and a magic compare per probe that
    is not a frame -- linear in the bytes read.  A probe reads up to the
    frame end its header claims *before* the magic is looked at, as the
    scan always has, so which probe a read error interrupts, and what has
    been found by then, does not depend on whether the probed bytes are a
    frame.
    """
    found: List[Tuple[int, DecodedChunk]] = []
    seen_offsets = set()
    limit = reader.limit
    buf = reader.ensure(0)  # the reader's one buffer; ensure() grows it

    def try_decode(offset: int) -> Optional[DecodedChunk]:
        # Callers guarantee offset + FRAME_OVERHEAD <= limit.
        if offset in seen_offsets:
            return None
        try:
            if len(buf) < offset + _HEADER_LEN:
                reader.ensure(offset + _HEADER_LEN)
            magic, uuid, body_len, crc = _HEADER.unpack_from(buf, offset)
            frame_end = offset + FRAME_OVERHEAD + body_len
            if frame_end > limit:
                return None
            if len(buf) < frame_end:
                reader.ensure(frame_end)
        except IoError:
            if on_read_error == "truncate":
                raise _ScanTruncated()
            raise
        if magic != CHUNK_MAGIC:
            return None
        try:
            chunk = _decode_body(buf, offset, uuid, body_len, crc)
        except CorruptionError:
            return None
        seen_offsets.add(offset)
        return chunk

    try:
        if sequential_only:
            offset = 0
            while offset + FRAME_OVERHEAD <= limit:
                chunk = try_decode(offset)
                if chunk is not None:
                    found.append((offset, chunk))
                    offset += chunk.frame_length
                else:
                    offset = (offset // page_size + 1) * page_size
        else:
            for offset in range(0, limit - FRAME_OVERHEAD + 1, page_size):
                chunk = try_decode(offset)
                if chunk is None:
                    continue
                found.append((offset, chunk))
                follow = offset + chunk.frame_length
                if follow % page_size == 0:
                    continue  # a later candidate of this loop
                # Chunks are appended back to back, often off page
                # boundaries: follow the chain until a probe fails.
                while follow + FRAME_OVERHEAD <= limit:
                    chunk = try_decode(follow)
                    if chunk is None:
                        break
                    found.append((follow, chunk))
                    follow += chunk.frame_length
    except _ScanTruncated:
        pass
    found.sort(key=lambda item: item[0])
    return found


class _ScanTruncated(Exception):
    """Internal: fault #5 swallowed a read error mid-scan."""
