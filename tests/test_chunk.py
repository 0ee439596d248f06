"""Unit tests for chunk framing and extent scanning (incl. the bug #10
mechanism)."""

import itertools
import random
import struct
import zlib

import pytest

from repro.shardstore.chunk import (
    CHUNK_MAGIC,
    FRAME_OVERHEAD,
    KIND_DATA,
    KIND_RUN,
    UUID_LEN,
    Locator,
    PagedReader,
    decode_chunk,
    encode_chunk,
    frame_size,
    scan_chunks,
)
from repro.shardstore.errors import CorruptionError, IoError

UUID = bytes(range(16))


def _frame(key=b"key", payload=b"payload", kind=KIND_DATA, uuid=UUID):
    return encode_chunk(kind, key, payload, uuid)


class TestFraming:
    def test_roundtrip(self):
        frame = _frame(payload=b"p" * 100)
        chunk = decode_chunk(frame)
        assert chunk.key == b"key"
        assert chunk.payload == b"p" * 100
        assert chunk.kind == KIND_DATA
        assert chunk.frame_length == len(frame)
        assert chunk.uuid == UUID

    def test_frame_size_matches(self):
        assert frame_size(b"key", b"abc") == len(_frame(payload=b"abc"))

    def test_empty_payload(self):
        chunk = decode_chunk(_frame(payload=b""))
        assert chunk.payload == b""

    def test_run_kind(self):
        chunk = decode_chunk(_frame(kind=KIND_RUN))
        assert chunk.kind == KIND_RUN

    def test_bad_uuid_length_rejected_at_encode(self):
        with pytest.raises(ValueError):
            encode_chunk(KIND_DATA, b"k", b"p", b"short")

    def test_unknown_kind_rejected_at_encode(self):
        with pytest.raises(ValueError):
            encode_chunk(7, b"k", b"p", UUID)

    def test_offset_decoding(self):
        buf = b"\x00" * 50 + _frame()
        chunk = decode_chunk(buf, 50)
        assert chunk.key == b"key"


class TestDecodeRejection:
    def test_bad_magic(self):
        frame = bytearray(_frame())
        frame[0] ^= 0xFF
        with pytest.raises(CorruptionError):
            decode_chunk(bytes(frame))

    def test_truncated_header(self):
        with pytest.raises(CorruptionError):
            decode_chunk(_frame()[:10])

    def test_truncated_body(self):
        frame = _frame(payload=b"x" * 100)
        with pytest.raises(CorruptionError):
            decode_chunk(frame[:-20])

    def test_body_crc(self):
        frame = bytearray(_frame(payload=b"x" * 50))
        frame[30] ^= 0x01  # inside the body
        with pytest.raises(CorruptionError):
            decode_chunk(bytes(frame))

    def test_trailing_uuid_mismatch(self):
        frame = bytearray(_frame())
        frame[-1] ^= 0x01
        with pytest.raises(CorruptionError):
            decode_chunk(bytes(frame))

    def test_unknown_kind_on_disk(self):
        frame = bytearray(_frame())
        # Flip the kind byte inside the body and fix the CRC by re-encoding:
        # simpler -- craft with a valid kind then ensure changed kind fails
        # CRC (defense in depth).
        body_start = 2 + 16 + 8
        frame[body_start] = 9
        with pytest.raises(CorruptionError):
            decode_chunk(bytes(frame))

    def test_negative_offset(self):
        with pytest.raises(CorruptionError):
            decode_chunk(_frame(), -1)


def _reader(data: bytes, page=128) -> PagedReader:
    return PagedReader(lambda off, length: data[off : off + length], len(data), page)


class TestScan:
    def test_back_to_back_chunks(self):
        data = _frame(key=b"a") + _frame(key=b"b") + _frame(key=b"c")
        found = scan_chunks(_reader(data), 128)
        assert [c.key for _, c in found] == [b"a", b"b", b"c"]

    def test_corrupt_chunk_skipped_to_page_boundary(self):
        first = bytearray(_frame(key=b"a", payload=b"x" * 100))
        first[5] ^= 0xFF  # corrupt the uuid
        data = bytes(first).ljust(256, b"\x00") + _frame(key=b"b")
        found = scan_chunks(_reader(data), 128)
        assert [c.key for _, c in found] == [b"b"]

    def test_sequential_scan_equivalent_on_clean_extent(self):
        data = _frame(key=b"a") + _frame(key=b"b", payload=b"y" * 200)
        fixed = scan_chunks(_reader(data), 128)
        sequential = scan_chunks(_reader(data), 128, sequential_only=True)
        assert [(o, c.key) for o, c in fixed] == [(o, c.key) for o, c in sequential]

    def test_uuid_magic_collision_scenario(self):
        """The paper's section 5 bug #10, byte for byte.

        A chunk whose trailing UUID spills 2 bytes onto the next page is
        torn by a crash; a second chunk is written at the page boundary.
        If the lost UUID tail equals the chunk magic, the sequential scan
        "successfully" decodes the corrupt first chunk and skips the live
        second chunk; the fixed scan still finds it.
        """
        page = 128
        # Choose payload so the frame ends exactly 2 bytes past page 1.
        overhead = frame_size(b"k1", b"")
        payload_len = page + 2 - overhead
        uuid1 = bytes(14) + CHUNK_MAGIC  # tail == magic: the collision
        first = encode_chunk(KIND_DATA, b"k1", b"p" * payload_len, uuid1)
        assert len(first) == page + 2
        second = _frame(key=b"k2", payload=b"live data")
        # Crash state: page 0 of chunk 1 persisted; chunk 2 written at the
        # recovered (page-aligned) pointer.
        data = first[:page] + second
        sequential = scan_chunks(_reader(data, page), page, sequential_only=True)
        fixed = scan_chunks(_reader(data, page), page)
        seq_keys = [c.key for _, c in sequential]
        fixed_keys = [c.key for _, c in fixed]
        assert b"k2" not in seq_keys, "buggy scan must be fooled"
        assert b"k2" in fixed_keys, "fixed scan must find the live chunk"

    def test_no_collision_means_both_scans_recover(self):
        page = 128
        overhead = frame_size(b"k1", b"")
        payload_len = page + 2 - overhead
        first = encode_chunk(KIND_DATA, b"k1", b"p" * payload_len, UUID)
        second = _frame(key=b"k2")
        data = first[:page] + second
        sequential = scan_chunks(_reader(data, page), page, sequential_only=True)
        assert b"k2" in [c.key for _, c in sequential]

    def test_read_error_raises_by_default(self):
        def failing_read(off, length):
            if off >= 128:
                raise IoError("injected")
            return (_frame(key=b"a") + b"\x00" * 512)[off : off + length]

        reader = PagedReader(failing_read, 512, 128)
        with pytest.raises(IoError):
            scan_chunks(reader, 128)

    def test_read_error_truncates_with_fault5_policy(self):
        data = _frame(key=b"a").ljust(128, b"\x00") + _frame(key=b"b")

        def failing_read(off, length):
            if off >= 128:
                raise IoError("injected")
            return data[off : off + length]

        reader = PagedReader(failing_read, len(data), 128)
        found = scan_chunks(reader, 128, on_read_error="truncate")
        assert [c.key for _, c in found] == [b"a"]  # b forgotten: bug #5


def _raw_frame(body: bytes, uuid: bytes = UUID, magic: bytes = CHUNK_MAGIC) -> bytes:
    """A frame around an arbitrary body, with a correct length and CRC."""
    return magic + uuid + struct.pack("<II", len(body), zlib.crc32(body)) + body + uuid


class TestBufferExport:
    """The scan decodes straight out of the reader's growing ``bytearray``;
    a buffer export that outlives a call would make the next page read
    raise ``BufferError``."""

    def test_ensure_hands_out_the_one_buffer(self):
        data = _frame(key=b"a", payload=b"x" * 300) + _frame(key=b"b")
        reads = []

        def read(off, length):
            reads.append((off, length))
            return data[off : off + length]

        reader = PagedReader(read, len(data), 128)
        first = reader.ensure(1)
        assert isinstance(first, bytearray) and len(first) == 128
        assert reader.ensure(300) is first and len(first) == 384
        assert reader.ensure(10**9) is first and bytes(first) == data
        assert reader.ensure(0) is first
        tail = len(data) - 384
        assert reads == [(0, 128), (128, 128), (256, 128), (384, tail)]

    @pytest.mark.parametrize(
        "frame",
        [
            _raw_frame(b"\x00\x01\x00kpayload", magic=b"XX"),
            _raw_frame(b"\x00\x01\x00kpayload")[:-30],  # frame out of bounds
            _raw_frame(b"\x00\x01\x00kpayload")[:-17] + b"!" + UUID,  # body CRC
            _raw_frame(b"\x00\x01\x00kpayload")[:-1] + b"!",  # trailing uuid
            _raw_frame(b"\x00"),  # body shorter than its header
            _raw_frame(b"\x09\x01\x00k"),  # unknown kind under a valid CRC
            _raw_frame(b"\x00\x64\x00ab"),  # key length past the body
        ],
        ids=["magic", "bounds", "crc", "trailer", "short", "kind", "key"],
    )
    def test_rejection_leaves_a_bytearray_resizable(self, frame):
        buf = bytearray(frame)
        with pytest.raises(CorruptionError) as caught:
            decode_chunk(buf)
        # ``caught`` pins the traceback, and through it decode's frame: a
        # view left open there would still be exporting ``buf``.
        buf += b"next page"
        assert caught.value is not None

    def test_decoded_chunk_holds_no_view_of_the_buffer(self):
        buf = bytearray(_frame(payload=b"p" * 40))
        chunk = decode_chunk(buf)
        buf += b"next page"
        buf[:] = bytes(len(buf))
        assert chunk.payload == b"p" * 40 and chunk.key == b"key"
        assert type(chunk.payload) is bytes and type(chunk.uuid) is bytes


# -- the scan against the code it replaced ---------------------------------
#
# Until ISSUE 22 ``PagedReader.ensure`` returned ``bytes(buf[:upto])`` -- a
# copy of the whole prefix per call, O(extent x chunks) per scan -- and
# ``try_decode`` re-read the header and rejected a non-frame probe through
# a raised ``CorruptionError``.  That code survives here, verbatim, as the
# reference the linear scan must agree with: same frames, same device reads.


class _CopyingReader:
    def __init__(self, read_fn, limit, page_size):
        self._read_fn = read_fn
        self.limit = limit
        self._page_size = page_size
        self._buf = bytearray()

    def ensure(self, upto):
        upto = min(upto, self.limit)
        while len(self._buf) < upto:
            start = len(self._buf)
            length = min(self._page_size, self.limit - start)
            self._buf += self._read_fn(start, length)
        return bytes(self._buf[:upto])


class _Truncated(Exception):
    pass


_HEADER_LEN = FRAME_OVERHEAD - UUID_LEN


def _reference_scan(reader, page_size, *, sequential_only, on_read_error):
    found = []
    seen_offsets = set()
    limit = reader.limit

    def try_decode(offset):
        if offset in seen_offsets:
            return None
        try:
            buf = reader.ensure(offset + _HEADER_LEN)
            if offset + _HEADER_LEN > len(buf):
                return None
            body_len = struct.unpack_from("<II", buf, offset + 2 + UUID_LEN)[0]
            frame_end = offset + _HEADER_LEN + body_len + UUID_LEN
            if frame_end > limit:
                return None
            buf = reader.ensure(frame_end)
            chunk = decode_chunk(buf, offset)
        except CorruptionError:
            return None
        except IoError:
            if on_read_error == "truncate":
                raise _Truncated()
            raise
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
            candidates = sorted(range(0, limit, page_size))
            pending = list(reversed(candidates))
            while pending:
                offset = pending.pop()
                if offset + FRAME_OVERHEAD > limit:
                    continue
                chunk = try_decode(offset)
                if chunk is None:
                    continue
                found.append((offset, chunk))
                follow = offset + chunk.frame_length
                if follow % page_size != 0 and follow + FRAME_OVERHEAD <= limit:
                    next_chunk = try_decode(follow)
                    while next_chunk is not None:
                        found.append((follow, next_chunk))
                        follow += next_chunk.frame_length
                        next_chunk = (
                            try_decode(follow)
                            if follow + FRAME_OVERHEAD <= limit
                            else None
                        )
    except _Truncated:
        pass
    found.sort(key=lambda item: item[0])
    return found


def _random_extent(rng: random.Random, page: int) -> bytes:
    """An extent as crashes, torn appends and re-use leave one."""
    out = bytearray()

    def pad():
        fill = rng.choice((b"\x00", b"\xff", None))
        short = -len(out) % page
        out.extend(fill * short if fill else rng.randbytes(short))

    def frame():
        return encode_chunk(
            rng.choice((KIND_DATA, KIND_RUN)),
            b"k%d" % rng.randrange(10 ** rng.randrange(1, 9)),
            rng.randbytes(rng.choice((0, 1, 7, 60, 200, 300, 700))),
            rng.randbytes(UUID_LEN),
        )

    for _ in range(rng.randrange(1, 9)):
        shape = rng.randrange(8)
        if shape <= 2:  # a run of frames appended back to back
            for _ in range(rng.randrange(1, 6)):
                out += frame()
            if rng.random() < 0.5:
                pad()
        elif shape == 3:  # a torn append, the pointer recovered past it
            whole = frame()
            out += whole[: rng.randrange(1, len(whole))]
            pad()
        elif shape == 4:  # a page of garbage
            pad()
            out += rng.randbytes(page)
        elif shape == 5:  # a non-frame whose header points some pages ahead
            pad()
            magic = rng.choice((CHUNK_MAGIC, b"\x00\x00", rng.randbytes(2)))
            claimed = rng.randrange(0, 4 * page)
            out += magic + rng.randbytes(UUID_LEN)
            out += struct.pack("<II", claimed, rng.getrandbits(32))
            out += rng.randbytes(rng.randrange(0, 2 * page))
        elif shape == 6:  # magic bytes inside a payload, on a page boundary
            pad()
            lead = frame_size(b"k", b"") - UUID_LEN
            inner = frame() if rng.random() < 0.5 else CHUNK_MAGIC * 40
            out += encode_chunk(
                KIND_DATA, b"k", bytes(page - lead) + inner, rng.randbytes(UUID_LEN)
            )
        else:  # bug #10: a torn frame that still decodes, over a live one
            pad()
            pages = rng.randrange(1, 3)
            uuid = rng.randbytes(UUID_LEN - 2) + CHUNK_MAGIC
            payload = rng.randbytes(pages * page + 2 - frame_size(b"k1", b""))
            torn = encode_chunk(KIND_DATA, b"k1", payload, uuid)
            assert len(torn) == pages * page + 2
            out += torn[:-2]  # the tail is the next frame's magic
            live = encode_chunk(KIND_DATA, b"live", rng.randbytes(20), uuid)
            out += live if rng.random() < 0.8 else frame()
    if rng.random() < 0.5:
        del out[rng.randrange(len(out) // 2, len(out) + 1) :]  # soft pointer
    return bytes(out)


def _scan_outcome(scan, reader_cls, data, page, fail_page, **mode):
    reads = []

    def read(off, length):
        reads.append((off, length))
        if off // page == fail_page:
            raise IoError("injected")
        return data[off : off + length]

    try:
        found = [
            (offset, c.kind, c.key, c.payload, c.frame_length, c.uuid)
            for offset, c in scan(reader_cls(read, len(data), page), page, **mode)
        ]
    except IoError:
        found = "raised"
    return found, reads


@pytest.mark.parametrize("seed", range(12))
def test_scan_matches_the_copying_reference(seed):
    """Same ``(offset, kind, key, payload, frame_length, uuid)`` list, from
    the same ``read_fn`` calls, each page at most once and in order."""
    rng = random.Random(seed)
    decoded = collided = truncated = raised = 0
    for _ in range(100):
        page = rng.choice((64, 128, 512))
        data = _random_extent(rng, page)
        pages = -(-len(data) // page)
        fail_pages = (None, rng.randrange(pages + 1), rng.randrange(pages + 1))
        for fail_page, sequential_only, on_read_error in itertools.product(
            fail_pages, (False, True), ("raise", "truncate")
        ):
            mode = dict(sequential_only=sequential_only, on_read_error=on_read_error)
            want, want_reads = _scan_outcome(
                _reference_scan, _CopyingReader, data, page, fail_page, **mode
            )
            got, got_reads = _scan_outcome(
                scan_chunks, PagedReader, data, page, fail_page, **mode
            )
            assert got == want, (seed, page, fail_page, mode)
            assert got_reads == want_reads, (seed, page, fail_page, mode)
            assert got_reads == [
                (n * page, min(page, len(data) - n * page))
                for n in range(len(got_reads))
            ]
            if got == "raised":
                raised += 1
                continue
            decoded += len(got)
            truncated += fail_page is not None and fail_page < len(got_reads)
            collided += any(
                after[0] < row[0] + row[4] for row, after in zip(got, got[1:])
            )
    # The generator reaches what it is meant to reach.
    assert decoded > 2000 and collided > 50 and truncated > 100 and raised > 100


class TestLocator:
    def test_value_roundtrip(self):
        loc = Locator(4, 100, 57)
        assert Locator.from_value(loc.to_value()) == loc

    @pytest.mark.parametrize("raw", [[1, 2], [1, 2, "x"], "nope", [-1, 0, 3]])
    def test_malformed_rejected(self, raw):
        with pytest.raises(CorruptionError):
            Locator.from_value(raw)

    def test_ordering(self):
        assert Locator(1, 0, 5) < Locator(1, 10, 5) < Locator(2, 0, 1)
