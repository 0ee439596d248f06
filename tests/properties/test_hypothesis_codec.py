"""Property-based tests for the codec (hypothesis).

Two invariant families: encode/decode is the identity on the value domain,
and decoders never raise anything but CorruptionError on arbitrary bytes
(the section 7 panic-freedom property, here as an unbounded random check).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serialization.codec import (
    decode_record,
    decode_value,
    encode_record,
    encode_value,
    scan_frames,
)
from repro.shardstore.chunk import KIND_DATA, KIND_RUN, decode_chunk, encode_chunk
from repro.shardstore.errors import CorruptionError

values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.binary(max_size=200)
    | st.text(max_size=100),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(
        st.one_of(
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
            st.text(max_size=20),
            st.binary(max_size=20),
        ),
        children,
        max_size=6,
    ),
    max_leaves=20,
)

pytestmark = pytest.mark.slow


class TestValueProperties:
    @given(values)
    def test_roundtrip_identity(self, value):
        assert decode_value(encode_value(value)) == value

    @given(values)
    def test_encoding_is_deterministic(self, value):
        assert encode_value(value) == encode_value(value)

    @given(st.binary(max_size=300))
    def test_decode_never_panics(self, data):
        try:
            decode_value(data)
        except CorruptionError:
            pass  # the only allowed failure

    @given(values, st.integers(min_value=1, max_value=8))
    def test_single_byteflip_never_panics(self, value, position):
        data = bytearray(encode_value(value))
        if not data:
            return
        data[position % len(data)] ^= 0xFF
        try:
            decode_value(bytes(data))
        except CorruptionError:
            pass


class TestRecordProperties:
    @given(values, st.sampled_from([64, 128, 256]))
    def test_record_roundtrip(self, value, page):
        record = encode_record(value, page)
        assert len(record) % page == 0
        decoded, _ = decode_record(record)
        assert decoded == value

    @given(st.lists(values, max_size=5), st.binary(max_size=64))
    def test_scan_recovers_prefix_before_garbage(self, payloads, garbage):
        page = 128
        log = b"".join(encode_record(p, page) for p in payloads)
        data = log + garbage
        frames, end = scan_frames(data, page)
        values = [decode_value(data[a:b]) for a, b in frames[: len(payloads)]]
        assert values == payloads[: len(frames)]
        assert end <= len(data)
        assert len(frames) >= len(payloads) or garbage == b""

    @given(st.binary(max_size=400))
    def test_record_decode_never_panics(self, data):
        try:
            decode_record(data)
        except CorruptionError:
            pass


class TestChunkProperties:
    @given(
        st.sampled_from([KIND_DATA, KIND_RUN]),
        st.binary(min_size=1, max_size=40),
        st.binary(max_size=300),
        st.binary(min_size=16, max_size=16),
    )
    def test_chunk_roundtrip(self, kind, key, payload, uuid):
        frame = encode_chunk(kind, key, payload, uuid)
        chunk = decode_chunk(frame)
        assert (chunk.kind, chunk.key, chunk.payload) == (kind, key, payload)
        assert chunk.frame_length == len(frame)

    @given(st.binary(max_size=400))
    def test_chunk_decode_never_panics(self, data):
        try:
            decode_chunk(data)
        except CorruptionError:
            pass

    @given(
        st.binary(min_size=1, max_size=20),
        st.binary(max_size=100),
        st.integers(min_value=0, max_value=200),
    )
    def test_truncation_always_rejected(self, key, payload, cut):
        frame = encode_chunk(KIND_DATA, key, payload, bytes(16))
        if cut >= len(frame):
            return
        with pytest.raises(CorruptionError):
            decode_chunk(frame[:cut])
