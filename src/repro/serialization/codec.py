"""Checksummed record framing for superblock and LSM metadata records.

ShardStore treats all bytes read from disk as untrusted (section 7): bit rot
and torn writes can corrupt anything, so deserializers must *never* raise an
unexpected exception -- on any input they either return a value or raise
:class:`~repro.shardstore.errors.CorruptionError`.  The panic-freedom
harness in :mod:`repro.serialization.fuzz` checks exactly this property, up
to a size bound exhaustively and beyond it by fuzzing, mirroring the
paper's use of the Crux symbolic-evaluation engine.

Record layout (all integers little-endian)::

    magic(4) | payload_len(4) | crc32(payload)(4) | payload | zero padding

Records are padded to a whole number of disk pages so that a torn append
can never leave a prefix of one record that parses as a valid record.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Dict, List, Tuple, Union

from repro.errors import CorruptionError

RECORD_MAGIC = b"SSRC"
_HEADER = struct.Struct("<4sII")

# A compact, canonical, self-describing value encoding.  We deliberately do
# not use pickle (arbitrary code execution on untrusted bytes) or json
# (no bytes support): on-disk data must decode through code we control.
_T_INT = 0
_T_BYTES = 1
_T_STR = 2
_T_LIST = 3
_T_DICT = 4
_T_NONE = 5
_T_BOOL = 6

Value = Union[int, bytes, str, list, dict, None, bool]
Buffer = Union[bytes, bytearray, memoryview]


class Preencoded:
    """A value already in canonical encoding, spliced verbatim on encode.

    Lets callers with a slow-changing subtree (the superblock's extent
    ownership map) cache its :func:`encode_value` bytes and reuse them
    across records.  The holder is responsible for the bytes being a valid
    canonical encoding of the value it stands for; decoding knows nothing
    of this type, so output stays byte-identical to encoding the plain
    value.  Never valid as a dict key (keys participate in canonical
    ordering, which needs the real value).
    """

    __slots__ = ("data",)

    def __init__(self, data: Union[bytes, bytearray]) -> None:
        self.data = data


_pack_q = struct.Struct("<q").pack
_pack_q_into = struct.Struct("<q").pack_into
_pack_I = struct.Struct("<I").pack
_unpack_q = struct.Struct("<q").unpack_from
_unpack_I = struct.Struct("<I").unpack_from
_INT_MIN = -(2**63)
_INT_MAX = 2**63
#: Encoded size of one int (tag + 64 bits) and of a container header
#: (tag + 32-bit count).
_INT_LEN = 9
_CONTAINER_HEADER_LEN = 5


def preencoded_list(count: int, items: Union[bytes, bytearray]) -> Preencoded:
    """The list of ``count`` items whose encodings are concatenated in ``items``.

    Lets the holder of a long, slowly-changing list (the LSM metadata
    record's run list) keep its items encoded and pay only a copy per record.
    """
    out = bytearray((_T_LIST,))
    out += _pack_I(count)
    out += items
    return Preencoded(out)


class PreencodedIntMap:
    """The encoding of an int -> int dict with a fixed key set, patched in place.

    An int key and an int value encode to a fixed width, so each value has
    a fixed offset in the canonical (key-sorted) encoding and :meth:`set`
    rewrites eight bytes.  :attr:`preencoded` always splices the current
    content, byte-identical to encoding the plain dict (the superblock's
    soft-pointer map: a flush moves one or two of its ~124 entries).
    """

    __slots__ = ("preencoded", "_value_at")

    def __init__(self, mapping: Dict[int, int]) -> None:
        if any(
            type(key) is not int or type(value) is not int
            for key, value in mapping.items()
        ):
            raise TypeError("PreencodedIntMap takes int keys and int values")
        data = bytearray(encode_value(mapping))
        self.preencoded = Preencoded(data)
        first_value = _CONTAINER_HEADER_LEN + _INT_LEN + 1  # past key and tag
        self._value_at = {
            key: first_value + 2 * _INT_LEN * position
            for position, key in enumerate(sorted(mapping))
        }

    def set(self, key: int, value: int) -> None:
        if type(value) is not int or not _INT_MIN <= value < _INT_MAX:
            raise ValueError("value is not a 64-bit signed integer")
        _pack_q_into(self.preencoded.data, self._value_at[key], value)


def encode_value(value: Value) -> bytes:
    """Encode a value tree into canonical bytes."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _encode_into(out: bytearray, value: Value) -> None:
    # Exact-type dispatch, hottest types first.  ``type(True) is int`` is
    # false, so checking ``int`` before ``bool`` here is safe; subclasses of
    # the encodable types fall through to the isinstance chain below, which
    # preserves the original tagging rules (bool before int).
    t = type(value)
    if t is int:
        if not _INT_MIN <= value < _INT_MAX:
            raise ValueError("integer out of encodable range (64-bit signed)")
        out.append(_T_INT)
        out += _pack_q(value)
    elif t is bytes:
        out.append(_T_BYTES)
        out += _pack_I(len(value))
        out += value
    elif t is list:
        out.append(_T_LIST)
        out += _pack_I(len(value))
        for item in value:
            # Inline the scalar-int case: locator lists are lists of small
            # ints and dominate metadata encodes.
            if type(item) is int and _INT_MIN <= item < _INT_MAX:
                out.append(_T_INT)
                out += _pack_q(item)
            else:
                _encode_into(out, item)
    elif t is dict:
        out.append(_T_DICT)
        out += _pack_I(len(value))
        # Canonical order so encodings are deterministic regardless of
        # insertion order (determinism is a design principle, section 4.3).
        # Homogeneously-typed key sets (the common case: extent numbers,
        # shard keys) sort natively; mixed-type keys fall back to the
        # (typename, repr) order.  Either rule is a pure function of the
        # key *set*, so equal dicts encode equal regardless of history.
        try:
            keys = sorted(value)
        except TypeError:
            keys = sorted(value, key=_dict_key_order)
        for key in keys:
            tk = type(key)
            if tk is bytes:
                out.append(_T_BYTES)
                out += _pack_I(len(key))
                out += key
            elif tk is int and _INT_MIN <= key < _INT_MAX:
                out.append(_T_INT)
                out += _pack_q(key)
            else:
                _encode_into(out, key)
            item = value[key]
            if type(item) is int and _INT_MIN <= item < _INT_MAX:
                out.append(_T_INT)
                out += _pack_q(item)
            else:
                _encode_into(out, item)
    elif t is str:
        data = value.encode("utf-8")
        out.append(_T_STR)
        out += _pack_I(len(data))
        out += data
    elif value is None:
        out.append(_T_NONE)
    elif t is bool:
        out.append(_T_BOOL)
        out.append(1 if value else 0)
    elif t is Preencoded:
        out += value.data
    elif isinstance(value, bool):  # must precede int check
        out.append(_T_BOOL)
        out.append(1 if value else 0)
    elif isinstance(value, int):
        if not _INT_MIN <= value < _INT_MAX:
            raise ValueError("integer out of encodable range (64-bit signed)")
        out.append(_T_INT)
        out += _pack_q(value)
    elif isinstance(value, bytes):
        out.append(_T_BYTES)
        out += _pack_I(len(value))
        out += value
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(_T_STR)
        out += _pack_I(len(data))
        out += data
    elif isinstance(value, list):
        out.append(_T_LIST)
        out += _pack_I(len(value))
        for item in value:
            _encode_into(out, item)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out += _pack_I(len(value))
        for key in sorted(value, key=_dict_key_order):
            _encode_into(out, key)
            _encode_into(out, value[key])
    elif isinstance(value, Preencoded):
        out += value.data
    else:
        raise TypeError(f"unencodable value of type {type(value).__name__}")


def _dict_key_order(key: Any) -> Tuple[str, str]:
    return (type(key).__name__, repr(key))


class _Reader:
    """Bounds-checked cursor over untrusted bytes."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise CorruptionError("truncated value encoding")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def byte(self) -> int:
        try:
            value = self.data[self.pos]
        except IndexError:
            raise CorruptionError("truncated value encoding") from None
        self.pos += 1
        return value

    def u32(self) -> int:
        return self._unpack(_unpack_I, 4)

    def i64(self) -> int:
        return self._unpack(_unpack_q, 8)

    def _unpack(self, unpack_from, size: int) -> int:
        # ``unpack_from`` checks the field against the buffer's end itself.
        try:
            (value,) = unpack_from(self.data, self.pos)
        except struct.error:
            raise CorruptionError("truncated value encoding") from None
        self.pos += size
        return value


# Guard against adversarial deep nesting blowing the Python stack: decoding
# is depth-limited, and exceeding the limit is corruption, not a crash.
_MAX_DEPTH = 32
_MAX_CONTAINER = 1 << 20


def decode_value(data: bytes) -> Value:
    """Decode canonical bytes; raises :class:`CorruptionError` on any
    malformed input (never any other exception)."""
    reader = _Reader(data)
    value = _decode_one(reader, 0)
    if reader.pos != len(data):
        raise CorruptionError("trailing bytes after value encoding")
    return value


def _decode_one(reader: _Reader, depth: int) -> Value:
    if depth > _MAX_DEPTH:
        raise CorruptionError("value nesting too deep")
    tag = reader.byte()
    if tag == _T_NONE:
        return None
    if tag == _T_BOOL:
        flag = reader.byte()
        if flag not in (0, 1):
            raise CorruptionError("invalid bool encoding")
        return bool(flag)
    if tag == _T_INT:
        return reader.i64()
    if tag == _T_BYTES:
        return reader.take(reader.u32())
    if tag == _T_STR:
        raw = reader.take(reader.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptionError("invalid utf-8 in string") from exc
    if tag == _T_LIST:
        count = reader.u32()
        if count > _MAX_CONTAINER:
            raise CorruptionError("list length out of range")
        return [_decode_one(reader, depth + 1) for _ in range(count)]
    if tag == _T_DICT:
        count = reader.u32()
        if count > _MAX_CONTAINER:
            raise CorruptionError("dict length out of range")
        out: Dict[Any, Any] = {}
        for _ in range(count):
            key = _decode_one(reader, depth + 1)
            if not isinstance(key, (int, str, bytes, bool)) and key is not None:
                raise CorruptionError("unhashable dict key")
            out[key] = _decode_one(reader, depth + 1)
        return out
    raise CorruptionError(f"unknown value tag {tag}")


def encode_record(payload_value: Value, page_size: int) -> bytes:
    """Frame a value as a CRC'd record padded to whole pages."""
    out = bytearray(_HEADER.size)
    _encode_into(out, payload_value)
    payload_len = len(out) - _HEADER.size
    _HEADER.pack_into(
        out, 0, RECORD_MAGIC, payload_len, zlib.crc32(memoryview(out)[_HEADER.size :])
    )
    padded_len = -(-len(out) // page_size) * page_size
    out += bytes(padded_len - len(out))
    return bytes(out)


def _payload_bounds(data: Buffer, offset: int) -> Tuple[int, int]:
    """Check the record frame at ``offset`` (magic, bounds, CRC); returns the
    still-undecoded payload's ``(start, end)`` or raises CorruptionError."""
    if offset < 0 or offset + _HEADER.size > len(data):
        raise CorruptionError("record header out of bounds")
    magic, payload_len, crc = _HEADER.unpack_from(data, offset)
    if magic != RECORD_MAGIC:
        raise CorruptionError("bad record magic")
    start = offset + _HEADER.size
    end = start + payload_len
    if end > len(data):
        raise CorruptionError("record payload out of bounds")
    if zlib.crc32(memoryview(data)[start:end]) != crc:
        raise CorruptionError("record checksum mismatch")
    return start, end


def decode_record(data: bytes, offset: int = 0) -> Tuple[Value, int]:
    """Decode one record at ``offset``; returns (value, bytes consumed).

    ``bytes consumed`` excludes page padding -- callers that walk a log of
    records should round up to the page size themselves.  Raises
    :class:`CorruptionError` for anything malformed.
    """
    start, end = _payload_bounds(data, offset)
    return decode_value(data[start:end]), end - offset


def scan_frames(data: Buffer, page_size: int) -> Tuple[List[Tuple[int, int]], int]:
    """Walk page-aligned record frames in ``data``; stop at the first bad one.

    Returns the payload ``(start, end)`` of every frame in the valid prefix
    and the prefix's end offset, where the log's next record belongs.
    Records are appended sequentially, so the first bad frame marks the end
    of the valid log (a torn tail or unwritten space); recovery must
    *truncate* the extent there (seal the log), or records appended after a
    torn record's garbage would be stranded beyond where later scans stop.
    Only the framing is checked -- a CRC per record; callers decode the
    payloads they adopt (``decode_value(data[start:end])``).
    """
    frames: List[Tuple[int, int]] = []
    view = memoryview(data)
    offset = 0
    while offset + _HEADER.size <= len(view):
        try:
            start, end = _payload_bounds(view, offset)
        except CorruptionError:
            break
        frames.append((start, end))
        offset += -(-(end - offset) // page_size) * page_size
    return frames, offset
